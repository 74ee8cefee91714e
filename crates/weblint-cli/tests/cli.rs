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
    // The flagged short case, then a whole page with no flags at all, so
    // the default configuration layering runs; HOME is an empty directory
    // and no rc variable is set, so no global rc is read.
    let home = std::env::temp_dir().join(format!("weblint-stdin-home-{}", std::process::id()));
    std::fs::create_dir_all(&home).unwrap();
    let page: &[u8] = b"<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><H1>x</H2></BODY></HTML>";
    for (args, input) in [
        (&["-noglobals", "-s", "-"][..], &b"<H1>x</H2>"[..]),
        (&["-"], page),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_weblint"))
            .args(args)
            .env_remove("WEBLINTRC")
            .env_remove("WEBLINT_SITE_CONFIG")
            .env("HOME", &home)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn");
        child.stdin.take().unwrap().write_all(input).unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("malformed heading"), "{args:?}: {stdout}");
    }
    std::fs::remove_dir_all(&home).ok();
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
fn fix_diff_previews_then_fix_repairs_in_place_behind_a_backup() {
    // -diff prints the repair without writing, -fix repairs in place
    // behind a .orig backup, and the repaired page lints clean.
    let dir = site_dir("weblint-fix-round-trip", &[]);
    std::fs::create_dir_all(&dir).unwrap();
    let page = dir.join("page.html");
    let before =
        "<HTML><HEAD><TITLE>t</TITLE></HEAD>\n<BODY>\n<H1>My Example</H2>\n</BODY></HTML>\n";
    std::fs::write(&page, before).unwrap();
    let page = page.to_str().unwrap();

    let diff = weblint(&["-fix", "-diff", page]);
    let diff = String::from_utf8(diff.stdout).unwrap();
    assert!(
        diff.lines().any(|line| line == "+<H1>My Example</H1>"),
        "{diff}"
    );
    assert_eq!(
        std::fs::read_to_string(page).unwrap(),
        before,
        "-diff wrote"
    );

    let fix = weblint(&["-fix", page]);
    assert_eq!(
        fix.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&fix.stderr)
    );
    let backup = std::fs::read_to_string(format!("{page}.orig")).expect("a .orig backup");
    assert_eq!(backup, before);

    let relint = weblint(&[page]);
    assert_eq!(
        relint.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&relint.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_listed_id_explains() {
    // Every identifier the registry knows, plus the example pack's
    // custom rules, renders an -explain entry; the registry dump and the
    // id listing exit clean.
    let pack = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/bootstrap.weblintrc"
    );
    let list = weblint(&["-noglobals", "-f", pack, "-list"]);
    assert_eq!(list.status.code(), Some(0));
    let ids = weblint(&["-noglobals", "-f", pack, "-ids"]);
    assert_eq!(ids.status.code(), Some(0));
    let ids = String::from_utf8(ids.stdout).unwrap();
    assert!(ids.split_whitespace().count() > 50, "{ids}");
    for id in ids.split_whitespace() {
        let out = weblint(&["-noglobals", "-f", pack, "-explain", id]);
        assert_eq!(out.status.code(), Some(0), "-explain {id}");
    }
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
fn poacher_links_to_directories_are_not_dead() {
    // `sub/`, `sub` and `/` name real directories of the tree. Their
    // GET must answer as their HEAD does (alive, not HTML), not 404.
    let index = format!(
        "{PAGE_HEAD}<P><A HREF=\"sub/\">s</A> <A HREF=\"sub\">s</A> \
         <A HREF=\"/\">r</A> <A HREF=\"sub/a.html\">a</A></P></BODY></HTML>\n"
    );
    let page = format!("{PAGE_HEAD}<P>a</P></BODY></HTML>\n");
    let dir = site_dir(
        "poacher-dir-links",
        &[("index.html", &index), ("sub/a.html", &page)],
    );
    let out = poacher(&["-s", dir.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("2 page(s) crawled, 0 message(s), 0 dead link(s)"),
        "{stdout}"
    );
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
/// replays. Its report lines are the fault-free crawl's (see
/// `poacher_faults_change_the_stats_never_the_report`); its `-stats`
/// block pins the fault schedule, retries and pacing of a crawl that
/// GETs each page once and HEADs nothing else.
const FAULTY_WIDE_GOLDEN: &str = include_str!("../../../tests/golden/poacher_faulty_wide.txt");

/// The faulty golden crawl's flags, less `-stats` and `-faults`.
const MEGA_WIDE: [&str; 10] = [
    "-mega",
    "8x100",
    "-shards",
    "4",
    "-jobs",
    "4",
    "-fault-seed",
    "7",
    "-adaptive",
    "-quiet",
];

#[test]
fn poacher_faults_change_the_stats_never_the_report() {
    // Every faulted request of the golden crawl is retried to an answer,
    // so everything above its -stats block must be the fault-free report.
    let clean = poacher(&MEGA_WIDE);
    let faulty = poacher(&[&MEGA_WIDE[..], &["-stats", "-faults", "10%"]].concat());
    assert_eq!(
        clean.status.code(),
        Some(1),
        "planted defects and dead links"
    );
    assert_eq!(faulty.status.code(), Some(1));
    let faulty = String::from_utf8(faulty.stdout).unwrap();
    assert_eq!(
        faulty
            .matches(", 0 request(s) failed after retries")
            .count(),
        4,
        "every shard recovered from every fault"
    );
    let report = &faulty[..faulty.find("poacher lint statistics:\n").expect("-stats")];
    assert_eq!(report, String::from_utf8(clean.stdout).unwrap());
}

#[test]
fn poacher_faulty_wide_crawl_matches_its_golden() {
    let out = poacher(&[&MEGA_WIDE[..], &["-stats", "-faults", "10%"]].concat());
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
