//! A daemon opened on a format 1 store file answers from it and upgrades
//! it. `fixtures/store-v1-fsrcnn.jsonl` was written by a daemon of the last
//! format 1 build, for the one request below (68 entries with whole
//! costs). The first life must answer with no mapping miss and the
//! standalone bytes, and leave a format 2 file; the next life loads that
//! file as stored answers, prices them on their first hits, and answers
//! byte-identically again.

use defines_serve::{render_outcome, send_line, Resolver, ScheduleRequest, Server, ServerConfig};
use std::path::{Path, PathBuf};

struct ZooResolver;

impl Resolver for ZooResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        defines_workload::models::by_name(spec).ok_or_else(|| format!("unknown workload '{spec}'"))
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        defines_arch::zoo::by_name(spec).ok_or_else(|| format!("unknown accelerator '{spec}'"))
    }
}

/// The request the fixture was written for: one tile, fully cached, the
/// whole network in one stack.
const REQUEST: &str = r#"{"workload":"fsrcnn","accelerator":"meta-proto-df","dfmode":"3","fuse":"full","tilex":[60],"tiley":[72]}"#;

fn config(file: &Path) -> ServerConfig {
    ServerConfig {
        workers: 2,
        engine_threads: 1,
        fast_mapper: true,
        cache_file: Some(file.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// The request computed in-process on a fresh cache.
fn standalone(config: &ServerConfig) -> String {
    let request = ScheduleRequest::from_value(&serde_json::from_str(REQUEST).unwrap()).unwrap();
    let item = request.to_batch_item(
        ZooResolver.accelerator(&request.accelerator).unwrap(),
        ZooResolver.workload(&request.workload).unwrap(),
    );
    let batch_config = defines_core::BatchConfig {
        fast_mapper: config.fast_mapper,
        budget: config.budget,
        ..defines_core::BatchConfig::default()
    };
    render_outcome(
        &request,
        &defines_core::run_batch(&[item], &batch_config)[0],
    )
}

/// Extracts `"name":<digits>` after the `"section":` key of a stats line.
fn stat(stats: &str, section: &str, name: &str) -> u64 {
    let rest = &stats[stats
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("no {section} in {stats}"))..];
    let pat = format!("\"{name}\":");
    let at = rest
        .find(&pat)
        .unwrap_or_else(|| panic!("no {section}.{name} in {stats}"));
    rest[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("stat value")
}

/// One daemon life on `file`: the request, then the `stats` line.
fn life(file: &Path) -> (String, String) {
    let server = Server::bind(config(file), Box::new(ZooResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run().expect("server run"));
    let response = send_line(&addr, REQUEST).expect("response");
    let stats = send_line(&addr, r#"{"cmd":"stats"}"#).expect("stats");
    send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    running.join().expect("server thread");
    (response, stats)
}

fn header(file: &Path) -> String {
    let text = std::fs::read_to_string(file).expect("read store");
    text.lines().next().unwrap_or_default().to_string()
}

#[test]
fn a_format_1_store_answers_without_misses_and_is_rewritten_as_format_2() {
    let fixture: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests/fixtures/store-v1-fsrcnn.jsonl",
    ]
    .iter()
    .collect();
    let file = std::env::temp_dir().join(format!(
        "defines-store-upgrade-{}.jsonl",
        std::process::id()
    ));
    std::fs::copy(&fixture, &file).expect("copy fixture");
    assert_eq!(header(&file), r#"{"defines_mapping_cache":1}"#);
    let expected = standalone(&config(&file));

    let (first, stats) = life(&file);
    assert_eq!(first, expected, "answer from the format 1 store");
    assert_eq!(stat(&stats, "store", "loaded"), 68, "{stats}");
    assert_eq!(stat(&stats, "cache", "misses"), 0, "{stats}");
    assert!(stat(&stats, "store", "compactions") >= 1, "{stats}");
    let text = std::fs::read_to_string(&file).expect("read store");
    assert_eq!(header(&file), r#"{"defines_mapping_cache":2}"#);
    assert!(!text.contains(r#""cost""#), "a format 1 line survived");
    assert_eq!(text.lines().count(), 1 + 68, "header + one line per entry");

    let (second, restarted) = life(&file);
    let _ = std::fs::remove_file(&file);
    assert_eq!(second, expected, "answer from the format 2 store");
    assert_eq!(stat(&restarted, "store", "loaded"), 68, "{restarted}");
    assert_eq!(stat(&restarted, "cache", "misses"), 0, "{restarted}");
    assert_eq!(
        stat(&restarted, "cache", "hits"),
        stat(&stats, "cache", "hits"),
        "a first hit that prices a stored answer is a hit\n{stats}\n{restarted}"
    );
}
