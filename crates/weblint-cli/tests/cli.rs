//! Process-level tests of the `weblint` and `poacher` binaries.

use std::path::PathBuf;
use std::process::{Command, Output};

fn weblint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_weblint"))
        .args(args)
        .env_remove("WEBLINTRC")
        .env_remove("WEBLINT_SITE_CONFIG")
        .env("HOME", "/nonexistent") // no ~/.weblintrc interference
        .output()
        .expect("weblint runs")
}

fn poacher(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_poacher"))
        .args(args)
        .output()
        .expect("poacher runs")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("weblint-cli-proc-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const PAPER_EXAMPLE: &str = "<HTML>\n<HEAD>\n<TITLE>example page\n</HEAD>\n\
<BODY BGCOLOR=\"fffff\" TEXT=#00ff00>\n<H1>My Example</H2>\n\
Click <B><A HREF=\"a.html>here</B></A>\nfor more details.\n</BODY>\n</HTML>\n";

#[test]
fn paper_example_through_the_binary() {
    let file = write_temp("test.html", PAPER_EXAMPLE);
    let out = weblint(&["-noglobals", "-s", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        "line 1: first element was not DOCTYPE specification\n\
         line 4: no closing </TITLE> seen for <TITLE> on line 3\n\
         line 5: value for attribute TEXT (#00ff00) of element BODY should be quoted \
         (i.e. TEXT=\"#00ff00\")\n\
         line 5: illegal value for BGCOLOR attribute of BODY (fffff)\n\
         line 6: malformed heading - open tag is <H1>, but closing is </H2>\n\
         line 7: odd number of quotes in element <A HREF=\"a.html>\n\
         line 7: </B> on line 7 seems to overlap <A>, opened on line 7\n"
    );
}

#[test]
fn default_format_is_lint_style() {
    let file = write_temp("lintstyle.html", "<H1>x</H2>");
    let out = weblint(&["-noglobals", file.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let name = file.to_str().unwrap();
    assert!(stdout.contains(&format!("{name}(1): ")), "{stdout}");
}

#[test]
fn stdin_via_dash() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_weblint"))
        .args(["-noglobals", "-s", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"<H1>x</H2>")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("malformed heading"));
}

/// Run `weblint -noglobals ARGS -` with `input` on stdin.
fn weblint_stdin(args: &[&str], input: &[u8]) -> Output {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_weblint"))
        .arg("-noglobals")
        .args(args)
        .arg("-")
        .env_remove("WEBLINTRC")
        .env_remove("WEBLINT_SITE_CONFIG")
        .env("HOME", "/nonexistent")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.take().unwrap().write_all(input).unwrap();
    child.wait_with_output().unwrap()
}

/// A page with one Latin-1 byte (0xE9, é), which is not UTF-8.
const LATIN1_PAGE: &[u8] =
    b"<HTML><HEAD><TITLE>caf\xe9</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";

#[test]
fn latin1_stdin_lints_alike_in_every_mode() {
    // Every mode that reads stdin whole replaces the byte, just as the
    // streamed `weblint -` does.
    let plain = weblint_stdin(&[], LATIN1_PAGE);
    assert_eq!(plain.status.code(), Some(1));
    let stdout = String::from_utf8(plain.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    for args in [&["-profile"][..], &["-jobs", "2"], &["-stats"]] {
        let out = weblint_stdin(args, LATIN1_PAGE);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8(out.stdout).unwrap(), stdout, "{args:?}");
    }
}

#[test]
fn latin1_stdin_is_fixed() {
    // Both findings are fixable, so nothing is left over: exit 0.
    let out = weblint_stdin(&["-fix", "-diff"], LATIN1_PAGE);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("+<HTML><HEAD><TITLE>caf\u{fffd}</TITLE></HEAD><BODY><H1>x</H1></BODY></HTML>"));
}

#[test]
fn usage_error_exits_2() {
    let out = weblint(&["-bogus-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("-bogus-flag"));
}

#[test]
fn todo_exits_0() {
    let out = weblint(&["-todo"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("55 messages"));
}

#[test]
fn env_config_is_respected() {
    let rc = write_temp("env.rc", "disable error, warning, style\n");
    let file = write_temp("envtest.html", "<H1>x</H2>");
    let out = Command::new(env!("CARGO_BIN_EXE_weblint"))
        .args(["-s", file.to_str().unwrap()])
        .env("WEBLINTRC", &rc)
        .env_remove("WEBLINT_SITE_CONFIG")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// A fresh site directory under the temp dir, one file per `(path, body)`.
fn site_dir(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (path, body) in files {
        let file = dir.join(path);
        std::fs::create_dir_all(file.parent().unwrap()).unwrap();
        std::fs::write(file, body).unwrap();
    }
    dir
}

const PAGE_HEAD: &str = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
                         <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>";

#[test]
fn poacher_crawls_and_reports() {
    let index = format!("{PAGE_HEAD}<P><A HREF=\"gone.html\">x</A></P></BODY></HTML>\n");
    let dir = site_dir("poacher-proc-test", &[("index.html", &index)]);
    let out = poacher(&["-s", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dead link"), "{stdout}");
    assert!(stdout.contains("1 page(s) crawled"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poacher_fix_converges_site_to_exit_0() {
    // The batch contract: a crawl where every page lints clean after -fix
    // exits 0, even though the pre-fix pages were full of messages.
    let dir = site_dir(
        "poacher-fix-proc-test",
        &[
            (
                "index.html",
                "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
                 <P><A HREF=\"a.html\">next</A></P><H1>Hi</H2></BODY></HTML>\n",
            ),
            (
                "a.html",
                "<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY><P>IMG=<IMG SRC=\"index.html\"></P></BODY></HTML>\n",
            ),
        ],
    );
    // Without -fix the site has messages → exit 1.
    let out = poacher(&["-s", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    let out = poacher(&["-s", "-fix", dir.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");
    assert!(stdout.contains("fix(es) applied"), "{stdout}");
    assert!(stdout.contains("0 message(s) remain"), "{stdout}");
    let fixed = std::fs::read_to_string(dir.join("index.html")).unwrap();
    assert!(fixed.starts_with("<!DOCTYPE"), "{fixed}");
    assert!(fixed.contains("</H1>"), "{fixed}");
    assert!(dir.join("index.html.orig").exists());
    assert!(std::fs::read_to_string(dir.join("a.html"))
        .unwrap()
        .contains("ALT=\"\""));

    // A second fixing crawl finds nothing left to do.
    let out = poacher(&["-s", "-fix", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("0 fix(es) applied"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poacher_usage() {
    let out = poacher(&["-help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("usage: poacher"));
    let out = poacher(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn poacher_budget_cut_reports_truncation_and_exits_1() {
    // index links a and b; a links c and the missing gone.html.
    let index = format!(
        "{PAGE_HEAD}<P><A HREF=\"a.html\">a</A> <A HREF=\"b.html\">b</A></P></BODY></HTML>\n"
    );
    let a = format!(
        "{PAGE_HEAD}<P><A HREF=\"c.html\">c</A> <A HREF=\"gone.html\">x</A></P></BODY></HTML>\n"
    );
    let leaf = format!("{PAGE_HEAD}<P>leaf</P></BODY></HTML>\n");
    let dir = site_dir(
        "poacher-cut",
        &[
            ("index.html", &index),
            ("a.html", &a),
            ("b.html", &leaf),
            ("c.html", &leaf),
        ],
    );
    let root = dir.to_str().unwrap();
    let plain = poacher(&["-s", "-max", "2", root]);
    let sharded = poacher(&["-s", "-max", "2", "-shards", "1", root]);
    for out in [&plain, &sharded] {
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stdout}\n{stderr}");
        assert!(
            stdout.contains("dead link on http://local/a.html: \"gone.html\""),
            "{stdout}"
        );
        assert!(stdout.contains("crawl truncated at 2 pages"), "{stdout}");
        assert!(!stderr.contains("resume"), "no checkpoint dir: {stderr}");
    }
    assert_eq!(plain.stdout, sharded.stdout);

    // A stop-file pause exits 0; the resume hint needs a checkpoint dir.
    let stop = dir.join("stop");
    std::fs::write(&stop, "").unwrap();
    let paused = poacher(&["-stop-file", stop.to_str().unwrap(), root]);
    assert_eq!(paused.status.code(), Some(0), "{paused:?}");
    assert!(!String::from_utf8_lossy(&paused.stderr).contains("resume"));
    let ckpt = dir.join("ckpt");
    let paused = poacher(&[
        "-stop-file",
        stop.to_str().unwrap(),
        "-checkpoint-dir",
        ckpt.to_str().unwrap(),
        root,
    ]);
    assert_eq!(paused.status.code(), Some(0), "{paused:?}");
    assert!(String::from_utf8_lossy(&paused.stderr).contains("resume with -resume"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poacher_report_is_invariant_across_jobs_and_shards() {
    let index = format!(
        "{PAGE_HEAD}<P><A HREF=\"a.html\">a</A> <A HREF=\"sub/b.html\">b</A> \
         <A HREF=\"gone.html\">x</A> \
         <IMG SRC=\"pic.gif\" ALT=\"p\" WIDTH=\"1\" HEIGHT=\"1\"></P></BODY></HTML>\n"
    );
    let a = format!("{PAGE_HEAD}<H1>oops</H2><P><A HREF=\"sub/b.html\">b</A></P></BODY></HTML>\n");
    let b = format!("{PAGE_HEAD}<P><A HREF=\"../a.html\">back</A></P></BODY></HTML>\n");
    let dir = site_dir(
        "poacher-invariant",
        &[
            ("index.html", &index),
            ("a.html", &a),
            ("sub/b.html", &b),
            ("pic.gif", "GIF89a"),
        ],
    );
    let root = dir.to_str().unwrap();
    let baseline = poacher(&["-s", root]);
    let stdout = String::from_utf8_lossy(&baseline.stdout);
    assert_eq!(baseline.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("3 page(s) crawled, 1 message(s), 1 dead link(s)"),
        "{stdout}"
    );
    for flags in [
        &["-s", "-jobs", "4"][..],
        &["-s", "-shards", "3", "-jobs", "2"],
    ] {
        let out = poacher(&[flags, &[root]].concat());
        assert_eq!(out.status.code(), baseline.status.code(), "{flags:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            stdout,
            "{flags:?} changed the report"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The faulty, adaptive, four-shard, four-wide `-mega` crawl ci.sh also
/// replays, recorded before HEAD link checks were batched: widening the
/// HEADs changes when requests overlap, never what the crawl reports.
const FAULTY_WIDE_GOLDEN: &str = include_str!("../../../tests/golden/poacher_faulty_wide.txt");

#[test]
fn poacher_faulty_wide_crawl_matches_its_golden() {
    let out = poacher(&[
        "-mega",
        "8x100",
        "-shards",
        "4",
        "-jobs",
        "4",
        "-stats",
        "-faults",
        "10%",
        "-fault-seed",
        "7",
        "-adaptive",
        "-quiet",
    ]);
    assert_eq!(out.status.code(), Some(1), "planted defects and dead links");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let first_diff = stdout
        .lines()
        .zip(FAULTY_WIDE_GOLDEN.lines())
        .position(|(got, want)| got != want);
    assert_eq!(first_diff, None, "first differing line (0-based)");
    assert!(
        stdout == FAULTY_WIDE_GOLDEN,
        "stdout differs from the golden"
    );
}
