//! The torture inputs of `nasty.rs`, shared with the workspace's token
//! golden (`tests/token_golden.rs`) and tokenizer fuzz gate, which pull
//! this file in by path.

pub const EMPTY_AND_WHITESPACE: &[&str] = &["", " ", "\n\n\n", "\t \r\n"];

pub const LONE_DELIMITERS: &[&str] = &[
    "<", ">", "&", "<>", "< >", "<<<", ">>>", "&&&", "</", "<!", "<?",
];

pub const UNTERMINATED_EVERYTHING: &[&str] = &[
    "<A",
    "<A HREF",
    "<A HREF=",
    "<A HREF=\"",
    "<A HREF=\"x",
    "<A HREF='x",
    "</A",
    "<!--",
    "<!-- almost -->extra<!--",
    "<!DOCTYPE",
    "<?php",
    "<![CDATA[ never closed",
    "<SCRIPT>while(1){}",
    "<STYLE>b{",
];

pub const PATHOLOGICAL_QUOTES: &[&str] = &[
    "<A HREF=\"a.html>x</A>",
    "<A HREF='a.html>x</A>",
    "<P X=\"a\" Y=\"b>z\">",
    "<P X='\"'>",
    "<P X=\"'\">",
    "<P \"\">",
    "<P ''=''>",
    "<P X=\"a\"Y=\"b\">",
];

pub const NESTED_GIBBERISH: &[&str] = &[
    "<B><I></B></I>",
    "<P <B <I>>>",
    "<TABLE><TR><TD><TABLE><TR><TD></TD></TR></TABLE>",
    "<A HREF=a<b>c</a>",
    "<!-- <!-- nested --> -->",
    "<<B>>double<<)/B>>",
];

pub const COMMENT_LIKE_DECLS: &[&str] = &[
    "<!>",
    "<!->",
    "<!--->",
    "<!---->",
    "<!ENTITY % x \"y\">",
    "<!DOCTYPE HTML SYSTEM \"html.dtd\" [ <!ENTITY a \"b\"> ]>",
];

/// Attribute soup from actual period tooling.
pub const FRONT_PAGE: &str = r#"<html><head>
<meta http-equiv=Content-Type content="text/html; charset=iso-8859-1">
<meta name=GENERATOR content="Microsoft FrontPage 3.0">
<title>Welcome !!!</title></head>
<body bgcolor=#FFFFFF text=#000000 link=#0000EE vlink=#551A8B alink=#FF0000
 topmargin="0" leftmargin="0">
<table border=0 cellpadding=0 cellspacing=0 width="100%">
<tr><td><img src="spacer.gif" width=1 height=1></td></tr>
</table>
<font face="Arial, Helvetica" size=2>Hello&nbsp;world&nbsp;&copy;1998</font>
<script language=JavaScript>
<!--
document.write("<b>generated</b>");
// -->
</script>
</body></html>"#;

pub const UNQUOTED_VALUES: &str = "<body bgcolor=#FFFFFF text=#000000>";

pub const CRLF_LINES: &str = "line one\r\n<B>two</B>\r\n<I>three</I>\r\n";

pub const LATIN1_AS_UTF8: &str = "<P>caf\u{e9} na\u{ef}ve \u{a9} 1998</P>";

pub const PLAINTEXT: &str = "<PLAINTEXT>all of <this> is </just> text & stuff";

/// A tag with 1000 attributes.
pub fn huge_single_tag() -> String {
    let mut src = String::from("<P");
    for i in 0..1000 {
        src.push_str(&format!(" a{i}=\"v{i}\""));
    }
    src.push('>');
    src
}

/// 2000 `<B>`s, then 2000 `</B>`s.
pub fn deeply_nested_tags() -> String {
    "<B>".repeat(2000) + &"</B>".repeat(2000)
}

/// Every input above, named by its list and index, in a stable order.
pub fn all() -> Vec<(String, String)> {
    let lists: [(&str, &[&str]); 6] = [
        ("whitespace", EMPTY_AND_WHITESPACE),
        ("delimiters", LONE_DELIMITERS),
        ("unterminated", UNTERMINATED_EVERYTHING),
        ("quotes", PATHOLOGICAL_QUOTES),
        ("gibberish", NESTED_GIBBERISH),
        ("decls", COMMENT_LIKE_DECLS),
    ];
    let mut out = Vec::new();
    for (list, inputs) in lists {
        for (i, src) in inputs.iter().enumerate() {
            out.push((format!("{list}-{i}"), src.to_string()));
        }
    }
    for (name, src) in [
        ("front-page", FRONT_PAGE),
        ("unquoted-values", UNQUOTED_VALUES),
        ("crlf-lines", CRLF_LINES),
        ("latin1-as-utf8", LATIN1_AS_UTF8),
        ("plaintext", PLAINTEXT),
    ] {
        out.push((name.to_string(), src.to_string()));
    }
    out.push(("huge-single-tag".to_string(), huge_single_tag()));
    out.push(("deeply-nested-tags".to_string(), deeply_nested_tags()));
    out
}
