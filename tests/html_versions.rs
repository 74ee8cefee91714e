//! Experiment E10 (correctness side): the versioned HTML modules.
//!
//! §5.5: "Other modules define the non-standard extensions supported by
//! Microsoft (Internet Explorer) and Netscape (Navigator)." Checking the
//! same page against different versions or extension overlays changes what
//! is flagged.

use weblint::html::{Extensions, HtmlVersion};
use weblint::{Category, LintConfig, LintSession};

fn check(version: HtmlVersion, extensions: Extensions, body: &str) -> Vec<&'static str> {
    let mut config = LintConfig::default();
    config.version = version;
    config.extensions = extensions;
    config.fragment = true;
    LintSession::with_config(config)
        .check_string(body)
        .into_iter()
        .map(|d| d.id)
        .collect()
}

#[test]
fn blink_needs_netscape() {
    let body = "<P><BLINK>hot</BLINK></P>";
    let plain = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert_eq!(plain, ["extension-markup"]);
    let ns = check(
        HtmlVersion::Html40Transitional,
        Extensions::netscape(),
        body,
    );
    assert_eq!(ns, Vec::<&str>::new());
    // The Microsoft overlay alone does not help.
    let ie = check(
        HtmlVersion::Html40Transitional,
        Extensions::microsoft(),
        body,
    );
    assert_eq!(ie, ["extension-markup"]);
}

#[test]
fn marquee_needs_microsoft() {
    let body = "<MARQUEE>wheee</MARQUEE>";
    let plain = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert_eq!(plain, ["extension-markup"]);
    let ie = check(
        HtmlVersion::Html40Transitional,
        Extensions::microsoft(),
        body,
    );
    assert_eq!(ie, Vec::<&str>::new());
}

#[test]
fn span_is_40_only() {
    let body = "<P><SPAN>x</SPAN></P>";
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        Vec::<&str>::new()
    );
    assert_eq!(
        check(HtmlVersion::Html32, Extensions::none(), body),
        ["version-markup"]
    );
}

#[test]
fn frameset_only_in_frameset_dtd() {
    let body = "<FRAMESET ROWS=\"50%,50%\"><FRAME SRC=\"a.html\"></FRAMESET>";
    let frameset = check(HtmlVersion::Html40Frameset, Extensions::none(), body);
    assert_eq!(frameset, Vec::<&str>::new());
    let transitional = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert!(transitional.contains(&"version-markup"), "{transitional:?}");
}

#[test]
fn center_is_deprecated_out_of_strict() {
    let body = "<CENTER>middle</CENTER>";
    // Transitional: defined but deprecated → the obsolete advice.
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        ["obsolete-element"]
    );
    // Strict: gone entirely, but the replacement advice is still the more
    // useful message, and exactly one fires (no cascade).
    assert_eq!(
        check(HtmlVersion::Html40Strict, Extensions::none(), body),
        ["obsolete-element"]
    );
}

#[test]
fn class_attribute_is_40_only() {
    let body = "<P CLASS=\"intro\">x</P>";
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        Vec::<&str>::new()
    );
    assert_eq!(
        check(HtmlVersion::Html32, Extensions::none(), body),
        ["version-markup"]
    );
}

#[test]
fn bgcolor_inactive_in_strict() {
    let body = "<TABLE BGCOLOR=\"red\"><TR><TD>x</TD></TR></TABLE>";
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        Vec::<&str>::new()
    );
    assert_eq!(
        check(HtmlVersion::Html40Strict, Extensions::none(), body),
        ["version-markup"]
    );
}

#[test]
fn ie_body_margins_need_microsoft() {
    let body = "<BODY LEFTMARGIN=\"0\">x</BODY>";
    let plain = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert_eq!(plain, ["extension-attribute"]);
    let ie = check(
        HtmlVersion::Html40Transitional,
        Extensions::microsoft(),
        body,
    );
    assert_eq!(ie, Vec::<&str>::new());
}

#[test]
fn extended_color_names_need_extensions() {
    let body = "<BODY BGCOLOR=\"tomato\">x</BODY>";
    let plain = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert_eq!(plain, ["attribute-value"]);
    let ns = check(
        HtmlVersion::Html40Transitional,
        Extensions::netscape(),
        body,
    );
    assert_eq!(ns, Vec::<&str>::new());
}

#[test]
fn euro_entity_is_40_only() {
    let body = "<P>100 &euro;</P>";
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        Vec::<&str>::new()
    );
    assert_eq!(
        check(HtmlVersion::Html32, Extensions::none(), body),
        ["unknown-entity"]
    );
}

#[test]
fn version_messages_are_warnings_not_errors() {
    let mut config = LintConfig::default();
    config.version = HtmlVersion::Html32;
    config.fragment = true;
    let mut w = LintSession::with_config(config);
    let diags = w.check_string("<P><SPAN>x</SPAN></P>");
    assert!(diags.iter().all(|d| d.category == Category::Warning));
}

#[test]
fn html20_lacks_32_features() {
    let body = "<TABLE><TR><TD>x</TD></TR></TABLE>";
    let found = check(HtmlVersion::Html20, Extensions::none(), body);
    assert!(found.contains(&"version-markup"), "{found:?}");
    // But the 2.0 core is fine.
    assert_eq!(
        check(
            HtmlVersion::Html20,
            Extensions::none(),
            "<P><B>x</B> <EM>y</EM></P>"
        ),
        Vec::<&str>::new()
    );
}

#[test]
fn html20_img_dimensions_are_new_markup() {
    let with_size = "<IMG SRC=\"x.gif\" ALT=\"a\" WIDTH=\"1\" HEIGHT=\"1\">";
    assert_eq!(
        check(
            HtmlVersion::Html40Transitional,
            Extensions::none(),
            with_size
        ),
        Vec::<&str>::new()
    );
    let found = check(HtmlVersion::Html20, Extensions::none(), with_size);
    assert_eq!(found, ["version-markup", "version-markup"]);
}

#[test]
fn nextid_exists_only_in_20() {
    let body = "<NEXTID N=\"z5\">";
    let found = check(HtmlVersion::Html20, Extensions::none(), body);
    // NEXTID is valid 2.0 but flagged as markup to remove.
    assert_eq!(found, ["obsolete-element"]);
    let found = check(HtmlVersion::Html40Transitional, Extensions::none(), body);
    assert!(found.contains(&"obsolete-element"), "{found:?}");
}

#[test]
fn anchor_urn_is_20_only() {
    let body = "<A HREF=\"x.html\" URN=\"urn:x\">y</A>";
    assert_eq!(
        check(HtmlVersion::Html20, Extensions::none(), body),
        Vec::<&str>::new()
    );
    assert_eq!(
        check(HtmlVersion::Html40Transitional, Extensions::none(), body),
        ["version-markup"]
    );
}
