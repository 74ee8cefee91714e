//! Robot crawl: the *poacher* analog over a simulated web.
//!
//! Builds a small simulated web — two hosts, a redirect, a dead internal
//! link, a dead external link — and lets the robot crawl it: every
//! reachable page is fetched and linted, every link validated with HEAD
//! requests, redirects followed (§4.5, §3.5).
//!
//! Run with:
//!
//! ```text
//! cargo run --example robot_crawl
//! ```

use weblint::site::{
    FetchStack, Robot, RobotOptions, ShardedOptions, SharedWeb, SimulatedWeb, Url,
};

fn page(title: &str, body: &str) -> String {
    format!(
        "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n\
         <HTML><HEAD><TITLE>{title}</TITLE></HEAD><BODY>\n{body}\n</BODY></HTML>\n"
    )
}

fn main() {
    let mut web = SimulatedWeb::new();
    web.add_page(
        "http://www.example.org/index.html",
        page(
            "home",
            "<H1>Welcome</H1>\n\
             <P><A HREF=\"products.html\">Products</A></P>\n\
             <P><A HREF=\"old-news.html\">News</A></P>\n\
             <P><A HREF=\"team/gone.html\">The team</A></P>\n\
             <P><A HREF=\"http://partner.example.net/info.html\">Partner</A></P>\n\
             <P><A HREF=\"http://partner.example.net/retired.html\">Old partner page</A></P>",
        ),
    );
    // A page with lint problems, to show the robot linting as it goes.
    web.add_page(
        "http://www.example.org/products.html",
        page(
            "products",
            "<H1>Products</H3>\n<P>Click <A HREF=\"index.html\">here</A>.</P>",
        ),
    );
    // A redirect the robot must follow.
    web.add_redirect("http://www.example.org/old-news.html", "/news.html");
    web.add_page(
        "http://www.example.org/news.html",
        page("news", "<P>All quiet.</P>"),
    );
    // The partner host serves one page; the other link is dead.
    web.add_page(
        "http://partner.example.net/info.html",
        page("partner", "<P>Hello from the partner.</P>"),
    );

    // One shard over a bare fetch stack: the plain sequential crawl.
    let web = SharedWeb::new(web);
    let robot = Robot::new(RobotOptions::default());
    let start = Url::parse("http://www.example.org/index.html").expect("valid URL");
    let report = robot
        .crawl_sharded(
            &[start],
            |_| FetchStack::new(web.clone()).build(),
            &ShardedOptions::default(),
        )
        .expect("an in-memory crawl cannot fail")
        .report;

    println!("crawled {} page(s):", report.pages.len());
    for crawled in &report.pages {
        println!(
            "  {} — {} message(s), {} link(s)",
            crawled.url,
            crawled.diagnostics.len(),
            crawled.link_count
        );
        for d in &crawled.diagnostics {
            println!("      line {}: {}", d.line, d.message);
        }
    }

    println!("\ndead links:");
    for dead in &report.dead_links {
        println!("  on {}: \"{}\" ({})", dead.page, dead.href, dead.reason);
    }

    println!("\nnavigational analysis (pages per click depth):");
    for (depth, count) in report.depth_histogram().iter().enumerate() {
        println!("  {depth} click(s): {count} page(s)");
    }

    println!("\nredirects followed: {}", report.redirects_followed);
    let stats = web.stats();
    println!(
        "transport: {} GETs, {} HEADs, {} bytes, {:.1} ms simulated wire time",
        stats.gets,
        stats.heads,
        stats.bytes,
        stats.simulated_us as f64 / 1000.0
    );
}
