//! Driving the checks and producing output.

use std::io::Read;
use std::path::{Path, PathBuf};

use weblint_config::{apply_directive, apply_pragmas, load_config_file, ConfigWarning};
use weblint_core::{
    format_report, CheckDef, Diagnostic, LintConfig, LintSession, OutputFormat, Profile, Rule,
    Summary, CATALOG, REGISTRY,
};
use weblint_service::{JobHandle, LintService, ServiceConfig};
use weblint_site::{DirStore, SiteChecker};

use crate::args::Args;

/// Exit status: clean.
pub const EXIT_CLEAN: i32 = 0;
/// Exit status: messages were produced.
pub const EXIT_MESSAGES: i32 = 1;
/// Exit status: usage or I/O trouble.
pub const EXIT_ERROR: i32 = 2;

/// Run weblint per the parsed arguments; returns the exit status.
/// Output goes to `out`, errors to `err`.
pub fn run(args: &Args, out: &mut impl std::io::Write, err: &mut impl std::io::Write) -> i32 {
    if args.help {
        let _ = writeln!(out, "{}", crate::args::USAGE);
        return EXIT_CLEAN;
    }
    if args.version {
        let _ = writeln!(out, "weblint {} (rust)", env!("CARGO_PKG_VERSION"));
        return EXIT_CLEAN;
    }
    if args.list_checks {
        list_checks(out);
        return EXIT_CLEAN;
    }
    // Catalog queries (-explain / -list / -ids) consult the resolved
    // configuration — custom rules from [rules] sections are part of the
    // catalog — but take no input files.
    let catalog_query = args.explain.is_some() || args.list_rules || args.ids;
    if !catalog_query && args.inputs.is_empty() {
        let _ = writeln!(err, "weblint: no files to check (try -help)");
        return EXIT_ERROR;
    }

    let config = match build_config(args, err) {
        Ok(c) => c,
        Err(message) => {
            let _ = writeln!(err, "weblint: {message}");
            return EXIT_ERROR;
        }
    };

    if let Some(id) = &args.explain {
        return explain_rule(id, &config, out, err);
    }
    if args.ids {
        print_ids(&config, out);
        return EXIT_CLEAN;
    }
    if args.list_rules {
        list_registry(&config, out);
        return EXIT_CLEAN;
    }

    // Fix mode rewrites files instead of reporting, one at a time — the
    // service fan-out buys nothing when each file is read, repaired, and
    // written back in sequence anyway.
    if args.fix {
        return run_fix(args, &config, out, err);
    }

    // `-profile` wants one set of counters over the whole batch, so it
    // lints inline on this thread (any -jobs request is ignored) and
    // prints the cost table to stderr once every input is done.
    if args.profile {
        return run_profile(args, &config, out, err);
    }

    // `-jobs N` (or `-stats`) routes the input files through the lint
    // service; otherwise everything happens inline on this thread. `-R`
    // trees lint on the site checker's own threads at the same width.
    // Output is byte-identical either way.
    let service = (args.jobs > 1 || args.stats).then(|| {
        LintService::new(ServiceConfig {
            workers: args.jobs.max(1),
            lint: config.clone(),
            ..ServiceConfig::default()
        })
    });

    let statuses: Vec<InputStatus> = match &service {
        Some(service) => run_parallel(args, &config, service, out, err),
        None => args
            .inputs
            .iter()
            .map(|input| check_one(input, args, &config, out, err))
            .collect(),
    };

    if args.stats {
        if let Some(service) = &service {
            let _ = writeln!(err, "{}", service.metrics());
        }
    }

    // Worst severity across the whole batch wins: one unreadable file
    // doesn't mask diagnostics from the rest, and vice versa.
    let mut code = EXIT_CLEAN;
    for status in statuses {
        code = code.max(match status {
            InputStatus::Clean => EXIT_CLEAN,
            InputStatus::Messages => EXIT_MESSAGES,
            InputStatus::Failed => EXIT_ERROR,
        });
    }
    code
}

/// Fan the inputs out over the service: phase one reads and submits every
/// file (workers start linting immediately), phase two walks the inputs in
/// order, waiting on each handle — so stdout and stderr are byte-identical
/// to the sequential run no matter which worker finished first.
fn run_parallel(
    args: &Args,
    config: &LintConfig,
    service: &LintService,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> Vec<InputStatus> {
    enum Prepared {
        Job(String, JobHandle, Vec<ConfigWarning>),
        Dir(PathBuf),
        Failed(String),
    }

    let mut prepared: Vec<Prepared> = Vec::with_capacity(args.inputs.len());
    for input in &args.inputs {
        let source = if is_dir(input) {
            if args.recurse {
                prepared.push(Prepared::Dir(PathBuf::from(input)));
                continue;
            }
            Err(format!(
                "weblint: {input} is a directory (use -R to check a whole tree)"
            ))
        } else {
            read_input(input)
        };
        prepared.push(match source {
            Ok((name, src)) => {
                let mut page_config = config.clone();
                match apply_pragmas(&src, &mut page_config) {
                    // Warnings surface in phase two, next to the page's
                    // report, so stderr reads the same as a sequential run.
                    Ok((_, warnings)) => match service.submit_with(src, Some(page_config)) {
                        Ok(handle) => Prepared::Job(name, handle, warnings),
                        Err(e) => Prepared::Failed(format!("weblint: {name}: {e}")),
                    },
                    Err(e) => Prepared::Failed(format!("weblint: {name}: {e}")),
                }
            }
            Err(message) => Prepared::Failed(message),
        });
    }

    prepared
        .into_iter()
        .map(|entry| match entry {
            Prepared::Job(name, handle, warnings) => {
                report_warnings(&name, &warnings, err);
                match handle.wait() {
                    Ok(diags) => {
                        let _ = write!(out, "{}", format_report(&diags, &name, args.format));
                        if diags.is_empty() {
                            InputStatus::Clean
                        } else {
                            InputStatus::Messages
                        }
                    }
                    Err(e) => {
                        let _ = writeln!(err, "weblint: {name}: {e}");
                        InputStatus::Failed
                    }
                }
            }
            Prepared::Dir(path) => check_directory(&path, config, args, out, err),
            Prepared::Failed(message) => {
                let _ = writeln!(err, "{message}");
                InputStatus::Failed
            }
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq)]
enum InputStatus {
    Clean,
    Messages,
    Failed,
}

/// Whether `input` names a directory (`-`, stdin, never does).
fn is_dir(input: &str) -> bool {
    input != "-" && Path::new(input).is_dir()
}

/// Read a whole input — `-` is stdin — as `(name, text)`, the name being
/// what reports call it. Invalid UTF-8 is replaced, exactly as a plain
/// `weblint FILE` or streamed `weblint -` replaces it, so every mode lints
/// the same text. The error is the finished `weblint: …` message.
fn read_input(input: &str) -> Result<(String, String), String> {
    let (name, bytes) = if input == "-" {
        let mut bytes = Vec::new();
        let read = std::io::stdin().read_to_end(&mut bytes);
        ("stdin", read.map(|_| bytes))
    } else {
        (input, std::fs::read(input))
    };
    match bytes {
        Ok(bytes) => Ok((
            name.to_string(),
            String::from_utf8_lossy(&bytes).into_owned(),
        )),
        Err(e) => Err(format!("weblint: {name}: {e}")),
    }
}

/// Fix passes before giving up on convergence. Every mechanical repair
/// lands in one pass; a second pass picks up fixes that were skipped over
/// a conflict; the rest is headroom.
const MAX_FIX_PASSES: usize = 4;

/// `-fix`: repair each input in place (or print a diff with `-diff`).
/// Exit status reflects what is *left over* after fixing.
fn run_fix(
    args: &Args,
    config: &LintConfig,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> i32 {
    let mut code = EXIT_CLEAN;
    for input in &args.inputs {
        code = code.max(fix_one(input, args, config, out, err));
    }
    code
}

fn fix_one(
    input: &str,
    args: &Args,
    config: &LintConfig,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> i32 {
    let from_stdin = input == "-";
    if is_dir(input) {
        let _ = writeln!(
            err,
            "weblint: {input} is a directory (-fix takes files; use poacher -fix for a tree)"
        );
        return EXIT_ERROR;
    }
    let (name, src) = match read_input(input) {
        Ok(source) => source,
        Err(message) => {
            let _ = writeln!(err, "{message}");
            return EXIT_ERROR;
        }
    };

    let mut page_config = config.clone();
    match apply_pragmas(&src, &mut page_config) {
        Ok((_, warnings)) => report_warnings(&name, &warnings, err),
        Err(e) => {
            let _ = writeln!(err, "weblint: {name}: {e}");
            return EXIT_ERROR;
        }
    }
    let mut fixer = weblint_fix::Fixer::with_config(page_config);
    let report = fixer.fix_until_stable(&src, MAX_FIX_PASSES);

    if args.diff {
        let _ = write!(
            out,
            "{}",
            weblint_fix::unified_diff(&src, &report.output, &name, &format!("{name} (fixed)"))
        );
    } else if from_stdin {
        // The fixed page is the product: stdout carries it, leftovers go
        // to stderr so pipelines stay clean.
        let _ = write!(out, "{}", report.output);
        let _ = write!(
            err,
            "{}",
            format_report(&report.remaining, &name, args.format)
        );
    } else if report.output != src {
        let backup = format!("{input}.orig");
        if let Err(e) = std::fs::write(&backup, &src) {
            let _ = writeln!(err, "weblint: {backup}: {e}");
            return EXIT_ERROR;
        }
        if let Err(e) = std::fs::write(input, &report.output) {
            let _ = writeln!(err, "weblint: {input}: {e}");
            return EXIT_ERROR;
        }
        let _ = writeln!(
            err,
            "weblint: {input}: {} fix(es) applied (original saved as {backup})",
            report.fixes_applied
        );
    }
    if !args.diff && !from_stdin {
        let _ = write!(
            out,
            "{}",
            format_report(&report.remaining, &name, args.format)
        );
    }
    if report.remaining.is_empty() {
        EXIT_CLEAN
    } else {
        EXIT_MESSAGES
    }
}

fn check_one(
    input: &str,
    args: &Args,
    config: &LintConfig,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> InputStatus {
    if input == "-" {
        let stdin = std::io::stdin();
        return lint_stream("stdin", stdin.lock(), config, args.format, out, err);
    }
    let path = Path::new(input);
    if path.is_dir() {
        if !args.recurse {
            let _ = writeln!(
                err,
                "weblint: {input} is a directory (use -R to check a whole tree)"
            );
            return InputStatus::Failed;
        }
        return check_directory(path, config, args, out, err);
    }
    match std::fs::read(path) {
        Ok(bytes) => {
            let src = String::from_utf8_lossy(&bytes);
            lint_source(input, &src, config, args.format, out, err)
        }
        Err(e) => {
            let _ = writeln!(err, "weblint: {input}: {e}");
            InputStatus::Failed
        }
    }
}

/// How much of the front of a stream is scanned for `<!-- weblint: … -->`
/// pragmas before linting starts. With a whole document in hand pragmas
/// apply page-wide regardless of position; a stream is linted as its
/// bytes arrive, so only pragmas inside this prelude can take effect.
/// 64 KiB covers any document head in practice without holding the body.
const PRAGMA_PRELUDE: usize = 64 * 1024;

/// Lint an input stream (stdin) without buffering the document: after the
/// pragma prelude, bytes feed a [`LintSession`] as they are read and are
/// never held — memory stays at the tokenizer's partial-token carry plus
/// the findings themselves, whatever the pipe's length. A document that
/// fits the prelude lints exactly like a file; invalid UTF-8 is replaced
/// as it would be for a file read.
fn lint_stream(
    name: &str,
    mut input: impl std::io::Read,
    config: &LintConfig,
    format: OutputFormat,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> InputStatus {
    let mut prelude = Vec::new();
    let mut buf = [0u8; 8192];
    let mut eof = false;
    while prelude.len() < PRAGMA_PRELUDE {
        match input.read(&mut buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => prelude.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = writeln!(err, "weblint: {name}: {e}");
                return InputStatus::Failed;
            }
        }
    }
    let mut page_config = config.clone();
    match apply_pragmas(&String::from_utf8_lossy(&prelude), &mut page_config) {
        Ok((_, warnings)) => report_warnings(name, &warnings, err),
        Err(e) => {
            let _ = writeln!(err, "weblint: {name}: {e}");
            return InputStatus::Failed;
        }
    }
    let mut session = LintSession::with_config(page_config);
    let mut diags: Vec<Diagnostic> = session.feed(&prelude).collect();
    drop(prelude);
    while !eof {
        match input.read(&mut buf) {
            Ok(0) => eof = true,
            Ok(n) => diags.extend(session.feed(&buf[..n])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = writeln!(err, "weblint: {name}: {e}");
                session.abort();
                return InputStatus::Failed;
            }
        }
    }
    diags.extend(session.finish());
    let _ = write!(out, "{}", format_report(&diags, name, format));
    if diags.is_empty() {
        InputStatus::Clean
    } else {
        InputStatus::Messages
    }
}

fn lint_source(
    name: &str,
    src: &str,
    config: &LintConfig,
    format: OutputFormat,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> InputStatus {
    // Page pragmas (`<!-- weblint: disable ... -->`) adjust this page only.
    let mut page_config = config.clone();
    match apply_pragmas(src, &mut page_config) {
        Ok((_, warnings)) => report_warnings(name, &warnings, err),
        Err(e) => {
            let _ = writeln!(err, "weblint: {name}: {e}");
            return InputStatus::Failed;
        }
    }
    let diags = LintSession::with_config(page_config).check_string(src);
    let _ = write!(out, "{}", format_report(&diags, name, format));
    if diags.is_empty() {
        InputStatus::Clean
    } else {
        InputStatus::Messages
    }
}

/// `-R`: check a directory tree as a site, linting `-jobs` pages at once
/// on the site checker's own threads (the lint service is not involved,
/// so `-stats` does not count these pages).
fn check_directory(
    dir: &Path,
    config: &LintConfig,
    args: &Args,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> InputStatus {
    let store = match DirStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            let _ = writeln!(err, "weblint: {}: {e}", dir.display());
            return InputStatus::Failed;
        }
    };
    let report = SiteChecker::new(config.clone())
        .jobs(args.jobs)
        .check(&store);
    let mut all: Vec<(String, Vec<Diagnostic>)> = report.pages.clone();
    for (path, diag) in &report.site_diagnostics {
        match all.iter_mut().find(|(p, _)| p == path) {
            Some((_, list)) => list.push(diag.clone()),
            None => all.push((path.clone(), vec![diag.clone()])),
        }
    }
    let mut total = Vec::new();
    for (page, diags) in &all {
        let shown = dir.join(page);
        let _ = write!(
            out,
            "{}",
            format_report(diags, &shown.to_string_lossy(), args.format)
        );
        total.extend(diags.iter().cloned());
    }
    let summary = Summary::of(&total);
    if summary.is_clean() {
        InputStatus::Clean
    } else {
        let _ = writeln!(out, "{} page(s) checked: {summary}", report.page_count());
        InputStatus::Messages
    }
}

/// Build the layered configuration: site file, user file, then switches.
/// Non-fatal problems (an unknown check id in a file or a `-e`/`-d` list)
/// are printed to `err` as warnings; they never affect the exit status.
fn build_config(args: &Args, err: &mut impl std::io::Write) -> Result<LintConfig, String> {
    let mut config = LintConfig::default();
    let mut warnings: Vec<ConfigWarning> = Vec::new();
    if !args.no_globals {
        if let Some(site) = site_config_path() {
            warnings.extend(load_config_file(&site, &mut config).map_err(|e| e.to_string())?);
        }
        let user = args
            .user_config
            .clone()
            .map(PathBuf::from)
            .or_else(user_config_path);
        if let Some(user) = user {
            warnings.extend(load_config_file(&user, &mut config).map_err(|e| e.to_string())?);
        }
    } else if let Some(user) = &args.user_config {
        warnings.extend(load_config_file(Path::new(user), &mut config).map_err(|e| e.to_string())?);
    }
    for directive in &args.directives {
        if let Some(w) = apply_directive(directive, &mut config).map_err(|e| e.to_string())? {
            warnings.push(w);
        }
    }
    for w in &warnings {
        let _ = writeln!(err, "weblint: warning: {w}");
    }
    Ok(config)
}

/// Print the non-fatal warnings a page's pragmas produced.
fn report_warnings(name: &str, warnings: &[ConfigWarning], err: &mut impl std::io::Write) {
    for w in warnings {
        let _ = writeln!(err, "weblint: {name}: warning: {}", w.message);
    }
}

/// `$WEBLINT_SITE_CONFIG`, for site-wide style guides.
fn site_config_path() -> Option<PathBuf> {
    std::env::var_os("WEBLINT_SITE_CONFIG").map(PathBuf::from)
}

/// `$WEBLINTRC`, else `~/.weblintrc`.
fn user_config_path() -> Option<PathBuf> {
    if let Some(rc) = std::env::var_os("WEBLINTRC") {
        return Some(PathBuf::from(rc));
    }
    std::env::var_os("HOME").map(|home| PathBuf::from(home).join(".weblintrc"))
}

fn list_checks(out: &mut impl std::io::Write) {
    let _ = writeln!(out, "weblint supports {} messages:\n", CATALOG.len());
    let fmt = |c: &CheckDef| {
        format!(
            "  {:<24} {:<8} {:<9} {}",
            c.id,
            c.category.name(),
            if c.default_enabled {
                "enabled"
            } else {
                "disabled"
            },
            c.summary
        )
    };
    for check in CATALOG {
        let _ = writeln!(out, "{}", fmt(check));
    }
    let enabled = CATALOG.iter().filter(|c| c.default_enabled).count();
    let _ = writeln!(out, "\n{enabled} enabled by default.");
}

/// `weblint -explain ID` / `weblint why ID`: render one catalog entry —
/// built-in descriptor or custom rule — to stdout. Unknown identifiers are
/// a usage error, with a nearest-id suggestion when one is close.
fn explain_rule(
    id: &str,
    config: &LintConfig,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> i32 {
    if let Some(rule) = Rule::from_id(id) {
        let d = rule.descriptor();
        let _ = writeln!(
            out,
            "{} ({}, {} by default{})",
            d.id,
            d.category.name(),
            if d.default_enabled {
                "enabled"
            } else {
                "disabled"
            },
            if d.fixable {
                ", mechanical fix available"
            } else {
                ""
            },
        );
        let _ = writeln!(out, "  {}\n", d.summary);
        for line in wrap(d.doc, 72) {
            let _ = writeln!(out, "  {line}");
        }
        let _ = writeln!(
            out,
            "\n  applies to: {}",
            weblint_core::applies::describe(d.applies)
        );
        if !d.example.is_empty() {
            let _ = writeln!(out, "  example:");
            for line in d.example.lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        return EXIT_CLEAN;
    }
    if let Some(rule) = config.custom_rules.iter().find(|r| r.id == id) {
        let _ = writeln!(
            out,
            "{} ({}, custom rule, {})",
            rule.id,
            rule.category.name(),
            if config.is_enabled(rule.id) {
                "enabled"
            } else {
                "disabled"
            },
        );
        let _ = writeln!(out, "  {}\n", rule.message);
        let _ = writeln!(out, "  declared by the configuration as:");
        let _ = writeln!(out, "    {rule}");
        return EXIT_CLEAN;
    }
    match config.suggest(id) {
        Some(close) => {
            let _ = writeln!(
                err,
                "weblint: unknown message identifier `{id}' (did you mean `{close}'?)"
            );
        }
        None => {
            let _ = writeln!(err, "weblint: unknown message identifier `{id}'");
        }
    }
    EXIT_ERROR
}

/// `-ids`: every identifier this configuration knows, one per line — the
/// machine-readable form scripts loop `-explain` over.
fn print_ids(config: &LintConfig, out: &mut impl std::io::Write) {
    for d in REGISTRY {
        let _ = writeln!(out, "{}", d.id);
    }
    for r in &config.custom_rules {
        let _ = writeln!(out, "{}", r.id);
    }
}

/// `-list`: the check registry as a table — every built-in descriptor
/// (with its applicability and fix capability) plus the custom rules the
/// configuration declares.
fn list_registry(config: &LintConfig, out: &mut impl std::io::Write) {
    let _ = writeln!(
        out,
        "check registry: {} built-in message(s), {} custom rule(s)\n",
        REGISTRY.len(),
        config.custom_rules.len()
    );
    let row = |out: &mut dyn std::io::Write,
               id: &str,
               category: &str,
               enabled: bool,
               fix: &str,
               applies: &str,
               summary: &str| {
        let _ = writeln!(
            out,
            "  {:<24} {:<8} {:<9} {:<4} {:<18} {}",
            id,
            category,
            if enabled { "enabled" } else { "disabled" },
            fix,
            applies,
            summary,
        );
    };
    let _ = writeln!(
        out,
        "  {:<24} {:<8} {:<9} {:<4} {:<18} summary",
        "id", "category", "state", "fix", "applies to"
    );
    for d in REGISTRY {
        row(
            out,
            d.id,
            d.category.name(),
            config.is_enabled(d.id),
            if d.fixable { "fix" } else { "-" },
            &weblint_core::applies::describe(d.applies),
            d.summary,
        );
    }
    for r in &config.custom_rules {
        row(
            out,
            r.id,
            r.category.name(),
            config.is_enabled(r.id),
            "-",
            "start-tag",
            &r.message,
        );
    }
}

/// `-profile`: lint every input inline through one [`LintSession`],
/// accumulating per-rule hit and wall-time counters, then print the cost
/// table to stderr. Diagnostics on stdout are identical to a plain run.
fn run_profile(
    args: &Args,
    config: &LintConfig,
    out: &mut impl std::io::Write,
    err: &mut impl std::io::Write,
) -> i32 {
    let mut profile = Profile::new();
    let mut session = LintSession::with_config(config.clone());
    let mut code = EXIT_CLEAN;
    for input in &args.inputs {
        if is_dir(input) {
            let _ = writeln!(
                err,
                "weblint: {input} is a directory (-profile takes files)"
            );
            code = code.max(EXIT_ERROR);
            continue;
        }
        let (name, src) = match read_input(input) {
            Ok(source) => source,
            Err(message) => {
                let _ = writeln!(err, "{message}");
                code = code.max(EXIT_ERROR);
                continue;
            }
        };
        let mut page_config = config.clone();
        match apply_pragmas(&src, &mut page_config) {
            Ok((_, warnings)) => report_warnings(&name, &warnings, err),
            Err(e) => {
                let _ = writeln!(err, "weblint: {name}: {e}");
                code = code.max(EXIT_ERROR);
                continue;
            }
        }
        session.set_config(page_config);
        let diags = session.check_string_profiled(&src, &mut profile);
        let _ = write!(out, "{}", format_report(&diags, &name, args.format));
        if !diags.is_empty() {
            code = code.max(EXIT_MESSAGES);
        }
    }
    let _ = write!(err, "{}", profile.render());
    code
}

/// Greedy word wrap for catalog documentation paragraphs.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;

    fn run_args(argv: &[&str]) -> (i32, String, String) {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = parse_args(&argv).unwrap();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let code = run(&args, &mut out, &mut err);
        (
            code,
            String::from_utf8(out).unwrap(),
            String::from_utf8(err).unwrap(),
        )
    }

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("weblint-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn streamed_stdin_matches_the_file_path_byte_for_byte() {
        // A head pragma, a body past one read-buffer length, and enough
        // problems to exercise several checks: the streamed lint must
        // produce the same report the buffered file path would.
        let src = format!(
            "<!-- weblint: disable img-alt -->\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>{}\
             <H1>x</H2><IMG SRC=\"a.gif\"></BODY></HTML>\n",
            "<P>padding</P>\n".repeat(1500)
        );
        let config = LintConfig::new();
        let mut expected_out = Vec::new();
        let mut expected_err = Vec::new();
        let expected = lint_source(
            "stdin",
            &src,
            &config,
            OutputFormat::Lint,
            &mut expected_out,
            &mut expected_err,
        );
        let mut out = Vec::new();
        let mut err = Vec::new();
        let status = lint_stream(
            "stdin",
            std::io::Cursor::new(src.into_bytes()),
            &config,
            OutputFormat::Lint,
            &mut out,
            &mut err,
        );
        assert_eq!(status, expected);
        assert_eq!(out, expected_out);
        assert_eq!(err, expected_err);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("malformed heading"), "{text}");
        assert!(!text.contains("img-alt"), "the pragma must hold: {text}");
    }

    #[test]
    fn streamed_stdin_reports_a_bad_pragma_like_a_file() {
        let src = "<!-- weblint: frobnicate everything -->\n<P>x</P>";
        let config = LintConfig::new();
        let mut out = Vec::new();
        let mut err = Vec::new();
        let status = lint_stream(
            "stdin",
            std::io::Cursor::new(src.as_bytes().to_vec()),
            &config,
            OutputFormat::Lint,
            &mut out,
            &mut err,
        );
        assert_eq!(status, InputStatus::Failed);
        assert!(out.is_empty());
        let text = String::from_utf8(err).unwrap();
        assert!(text.contains("pragma"), "{text}");
    }

    #[test]
    fn todo_lists_catalog() {
        let (code, out, _) = run_args(&["-todo"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("here-anchor"));
        assert!(out.contains("42 enabled by default."));
    }

    #[test]
    fn help_and_version() {
        let (code, out, _) = run_args(&["-help"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("usage: weblint"));
        let (code, out, _) = run_args(&["-version"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("weblint"));
    }

    #[test]
    fn no_inputs_is_usage_error() {
        let (code, _, err) = run_args(&["-noglobals"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("no files"));
    }

    #[test]
    fn messages_exit_1_clean_exit_0() {
        let bad = write_temp("bad.html", "<H1>x</H2>");
        let (code, out, _) = run_args(&["-noglobals", "-s", bad.to_str().unwrap()]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(out.contains("malformed heading"));

        let good = write_temp(
            "good.html",
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>fine</P></BODY></HTML>\n",
        );
        let (code, out, _) = run_args(&["-noglobals", good.to_str().unwrap()]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.is_empty());
    }

    #[test]
    fn missing_file_exit_2() {
        let (code, _, err) = run_args(&["-noglobals", "/no/such/file.html"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("no/such/file.html"));
    }

    #[test]
    fn directory_without_recurse_is_error() {
        let dir = std::env::temp_dir().join("weblint-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (code, _, err) = run_args(&["-noglobals", dir.to_str().unwrap()]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("-R"));
    }

    #[test]
    fn recurse_checks_site() {
        let root = std::env::temp_dir().join("weblint-cli-site");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            root.join("index.html"),
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
             <P><A HREF=\"gone.html\">x</A></P></BODY></HTML>\n",
        )
        .unwrap();
        let (code, out, _) = run_args(&["-noglobals", "-R", "-s", root.to_str().unwrap()]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(out.contains("gone.html"), "{out}");
        assert!(out.contains("page(s) checked"), "{out}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disable_via_switch() {
        let bad = write_temp("bad2.html", "<H1>x</H2>");
        let (code, _, _) = run_args(&[
            "-noglobals",
            "-d",
            "error,warning,style",
            bad.to_str().unwrap(),
        ]);
        assert_eq!(code, EXIT_CLEAN);
    }

    #[test]
    fn pragma_respected_per_page() {
        let page = write_temp(
            "pragma.html",
            "<!-- weblint: fragment on -->\n<B>bold only</B>\n",
        );
        let (code, out, _) = run_args(&["-noglobals", page.to_str().unwrap()]);
        assert_eq!(code, EXIT_CLEAN, "{out}");
    }

    #[test]
    fn user_config_file_via_f() {
        let rc = write_temp("user.rc", "disable error\ndisable warning\ndisable style\n");
        let bad = write_temp("bad3.html", "<H1>x</H2>");
        let (code, _, _) = run_args(&[
            "-noglobals",
            "-f",
            rc.to_str().unwrap(),
            bad.to_str().unwrap(),
        ]);
        assert_eq!(code, EXIT_CLEAN);
    }

    #[test]
    fn jobs_output_is_byte_identical() {
        // The acceptance bar for the service integration: fanned-out runs
        // must not reorder or alter a single byte of output.
        let root = std::env::temp_dir().join("weblint-cli-jobs-site");
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("sub")).unwrap();
        std::fs::write(
            root.join("index.html"),
            "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\
             <P><A HREF=\"a.html\">a</A> <A HREF=\"sub/b.html\">b</A> \
             <A HREF=\"gone.html\">dead</A></P></BODY></HTML>\n",
        )
        .unwrap();
        std::fs::write(root.join("a.html"), "<H1>bad</H2>").unwrap();
        std::fs::write(root.join("sub").join("b.html"), "<IMG SRC=x>").unwrap();
        let dir = root.to_str().unwrap();

        let sequential = run_args(&["-noglobals", "-R", dir]);
        for jobs in ["1", "2", "4"] {
            let fanned = run_args(&["-noglobals", "-R", "-jobs", jobs, dir]);
            assert_eq!(fanned, sequential, "-jobs {jobs} diverged");
        }

        // Multi-file (non -R) runs too.
        let a = root.join("a.html");
        let b = root.join("sub").join("b.html");
        let files = [a.to_str().unwrap(), b.to_str().unwrap()];
        let sequential = run_args(&["-noglobals", files[0], files[1]]);
        let fanned = run_args(&["-noglobals", "-jobs", "4", files[0], files[1]]);
        assert_eq!(fanned, sequential);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn batch_exit_code_is_worst_severity() {
        // One unreadable file must not mask diagnostics from the rest,
        // and the batch exits with the worst severity seen.
        let bad = write_temp("worst1.html", "<H1>x</H2>");
        let good = write_temp(
            "worst2.html",
            "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
             <HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>fine</P></BODY></HTML>\n",
        );
        for jobs in [&["-noglobals"][..], &["-noglobals", "-jobs", "2"][..]] {
            let mut argv = jobs.to_vec();
            argv.extend(["/no/such/file.html", bad.to_str().unwrap()]);
            let (code, out, err) = run_args(&argv);
            assert_eq!(code, EXIT_ERROR, "I/O failure is the worst severity");
            assert!(
                out.contains("malformed heading"),
                "diagnostics not masked: {out}"
            );
            assert!(err.contains("no/such/file.html"));

            let mut argv = jobs.to_vec();
            argv.extend([bad.to_str().unwrap(), good.to_str().unwrap()]);
            let (code, _, _) = run_args(&argv);
            assert_eq!(code, EXIT_MESSAGES);
        }
    }

    #[test]
    fn stats_prints_service_metrics_to_stderr() {
        let bad = write_temp("stats.html", "<H1>x</H2>");
        let (code, out, err) = run_args(&[
            "-noglobals",
            "-stats",
            "-jobs",
            "2",
            bad.to_str().unwrap(),
            bad.to_str().unwrap(),
        ]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(err.contains("lint service statistics"), "{err}");
        assert!(err.contains("2 worker(s)"), "{err}");
        assert!(err.contains("hit(s)"), "{err}");
        assert!(err.contains("2 submitted"), "{err}");
        assert!(
            !out.contains("lint service statistics"),
            "stats stay off stdout"
        );
    }

    #[test]
    fn fix_rewrites_in_place_with_backup() {
        let page = write_temp(
            "fixme.html",
            "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC=\"x.gif\"></BODY></HTML>\n",
        );
        let (code, out, err) = run_args(&["-noglobals", "-fix", page.to_str().unwrap()]);
        assert_eq!(code, EXIT_CLEAN, "out={out} err={err}");
        let fixed = std::fs::read_to_string(&page).unwrap();
        assert!(fixed.contains("ALT=\"\""), "{fixed}");
        assert!(fixed.starts_with("<!DOCTYPE"), "{fixed}");
        let orig = std::fs::read_to_string(format!("{}.orig", page.display())).unwrap();
        assert!(!orig.contains("ALT"), "backup holds the original: {orig}");
        assert!(err.contains("fix(es) applied"), "{err}");
        // A second run finds nothing to do and leaves the file alone.
        let (code, _, err) = run_args(&["-noglobals", "-fix", page.to_str().unwrap()]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(!err.contains("fix(es) applied"), "{err}");
    }

    #[test]
    fn fix_diff_prints_and_writes_nothing() {
        let src = "<H1>My Example</H2>\n";
        let page = write_temp("diffme.html", src);
        let (code, out, _) = run_args(&["-noglobals", "-fix", "-diff", page.to_str().unwrap()]);
        // The heading is repaired but the page still has no HTML/HEAD/BODY
        // skeleton — unfixable residue, so the exit code stays 1.
        assert_eq!(code, EXIT_MESSAGES, "{out}");
        assert!(out.contains("-<H1>My Example</H2>"), "{out}");
        assert!(out.contains("+"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&page).unwrap(),
            src,
            "no writes in diff mode"
        );
        assert!(!Path::new(&format!("{}.orig", page.display())).exists());
    }

    #[test]
    fn fix_leaves_unfixable_messages_and_exits_1() {
        // odd-quotes has no mechanical remedy; the residue keeps exit 1.
        let page = write_temp("unfixable.html", "<P ALIGN=\"x>text</P>\n");
        let (code, out, _) = run_args(&["-noglobals", "-fix", "-s", page.to_str().unwrap()]);
        assert_eq!(code, EXIT_MESSAGES, "{out}");
        assert!(out.contains("odd number"), "{out}");
    }

    #[test]
    fn fix_rejects_directories() {
        let dir = std::env::temp_dir().join("weblint-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let (code, _, err) = run_args(&["-noglobals", "-fix", dir.to_str().unwrap()]);
        assert_eq!(code, EXIT_ERROR);
        assert!(err.contains("poacher -fix"), "{err}");
    }

    #[test]
    fn explain_built_in() {
        let (code, out, _) = run_args(&["-noglobals", "-explain", "img-alt"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("img-alt"), "{out}");
        assert!(out.contains("applies to: start-tag"), "{out}");
        assert!(out.contains("example:"), "{out}");
        let (code2, out2, _) = run_args(&["-noglobals", "why", "img-alt"]);
        assert_eq!(code2, EXIT_CLEAN);
        assert_eq!(out, out2, "why is a spelling of -explain");
    }

    #[test]
    fn explain_unknown_suggests_nearest() {
        let (code, out, err) = run_args(&["-noglobals", "-explain", "img-atl"]);
        assert_eq!(code, EXIT_ERROR);
        assert!(out.is_empty());
        assert!(err.contains("img-atl"), "{err}");
        assert!(err.contains("did you mean `img-alt'"), "{err}");
    }

    #[test]
    fn explain_custom_rule() {
        let rc = write_temp(
            "explain.rc",
            "[rules]\nbtn-class warning element=button !attr=class \"button needs a class\"\n",
        );
        let (code, out, _) = run_args(&[
            "-noglobals",
            "-f",
            rc.to_str().unwrap(),
            "-explain",
            "btn-class",
        ]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(out.contains("custom rule"), "{out}");
        assert!(out.contains("element=button"), "{out}");
        assert!(out.contains("button needs a class"), "{out}");
    }

    #[test]
    fn ids_lists_every_identifier() {
        let (code, out, _) = run_args(&["-noglobals", "-ids"]);
        assert_eq!(code, EXIT_CLEAN);
        let ids: Vec<&str> = out.lines().collect();
        assert_eq!(ids.len(), 55);
        assert!(ids.contains(&"img-alt"));
        assert!(ids.contains(&"xml-self-close"));
    }

    #[test]
    fn list_dumps_registry_with_custom_rules() {
        let rc = write_temp(
            "list.rc",
            "[rules]\nlist-rule style element=marquee \"no marquee\"\n",
        );
        let (code, out, _) = run_args(&["-noglobals", "-f", rc.to_str().unwrap(), "-list"]);
        assert_eq!(code, EXIT_CLEAN);
        assert!(
            out.contains("55 built-in message(s), 1 custom rule(s)"),
            "{out}"
        );
        assert!(out.contains("list-rule"), "{out}");
        assert!(out.contains("no marquee"), "{out}");
        assert!(out.contains("start-tag"), "{out}");
    }

    #[test]
    fn profile_prints_cost_table_to_stderr() {
        let bad = write_temp("prof.html", "<H1>x</H2>");
        let (code, out, err) = run_args(&["-noglobals", "-profile", bad.to_str().unwrap()]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(err.contains("per-rule cost"), "{err}");
        assert!(err.contains("heading-mismatch"), "{err}");
        assert!(err.contains("(engine)"), "{err}");
        // stdout is byte-identical to an unprofiled run.
        let (_, plain, _) = run_args(&["-noglobals", bad.to_str().unwrap()]);
        assert_eq!(out, plain);
    }

    #[test]
    fn unknown_id_in_config_warns_but_lints() {
        let rc = write_temp("warny.rc", "disable no-such-check\n");
        let bad = write_temp("warny.html", "<H1>x</H2>");
        let (code, out, err) = run_args(&[
            "-noglobals",
            "-f",
            rc.to_str().unwrap(),
            bad.to_str().unwrap(),
        ]);
        assert_eq!(code, EXIT_MESSAGES, "warnings never change the exit code");
        assert!(out.contains("malformed heading"), "{out}");
        assert!(err.contains("warning:"), "{err}");
        assert!(err.contains("no-such-check"), "{err}");
    }

    #[test]
    fn unknown_id_in_pragma_warns_but_lints() {
        let page = write_temp(
            "warnp.html",
            "<!-- weblint: disable no-such-check -->\n<H1>x</H2>\n",
        );
        let (code, _, err) = run_args(&["-noglobals", page.to_str().unwrap()]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(err.contains("pragma"), "{err}");
        assert!(err.contains("no-such-check"), "{err}");
    }

    #[test]
    fn custom_rule_fires_from_config_file() {
        let rc = write_temp(
            "fire.rc",
            "[rules]\nbtn-needs-class warning element=button !attr=class \
             \"every button needs a class\"\n",
        );
        let page = write_temp("fire.html", "<BUTTON>x</BUTTON>\n");
        let (code, out, _) = run_args(&[
            "-noglobals",
            "-f",
            rc.to_str().unwrap(),
            "-t",
            page.to_str().unwrap(),
        ]);
        assert_eq!(code, EXIT_MESSAGES);
        assert!(out.contains(":btn-needs-class:"), "{out}");
        assert!(out.contains("every button needs a class"), "{out}");
    }

    #[test]
    fn json_format() {
        let bad = write_temp("bad4.html", "<H1>x</H2>");
        let (_, out, _) = run_args(&["-noglobals", "-json", bad.to_str().unwrap()]);
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(!parsed.as_array().unwrap().is_empty());
    }
}
