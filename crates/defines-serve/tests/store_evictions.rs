//! The daemon's `serve.evictions` is the store's own eviction count: it
//! covers the evictions of opening an over-full store file and of every
//! sync, so it equals `store.evicted` at any moment of a bounded daemon's
//! life.

use defines_serve::{send_line, Resolver, Server, ServerConfig};
use std::path::Path;

struct ZooResolver;

impl Resolver for ZooResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        defines_workload::models::by_name(spec).ok_or_else(|| format!("unknown workload '{spec}'"))
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        defines_arch::zoo::by_name(spec).ok_or_else(|| format!("unknown accelerator '{spec}'"))
    }
}

/// Extracts `"name":<digits>` after the `"section":` key of a stats line.
fn stat(stats: &str, section: &str, name: &str) -> u64 {
    let section_at = stats
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("no {section} in {stats}"));
    let rest = &stats[section_at..];
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

fn request(workload: &str, tile: (u64, u64)) -> String {
    format!(
        r#"{{"workload":"{workload}","accelerator":"meta-proto-df","dfmode":"123","fuse":"auto","tilex":[{}],"tiley":[{}]}}"#,
        tile.0, tile.1
    )
}

/// Runs one daemon life over `file`: sends every request, then returns
/// the `stats` line read before shutting down.
fn life(file: &Path, max_entries: usize, requests: &[String]) -> String {
    let config = ServerConfig {
        workers: 2,
        engine_threads: 1,
        fast_mapper: true,
        cache_file: Some(file.to_path_buf()),
        max_entries,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, Box::new(ZooResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let running = std::thread::spawn(move || server.run().expect("server run"));
    for line in requests {
        let response = send_line(&addr, line).expect("response");
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
    }
    let stats = send_line(&addr, r#"{"cmd":"stats"}"#).expect("stats");
    send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    running.join().expect("server thread");
    stats
}

#[test]
fn serve_evictions_equal_the_store_count_across_a_restart() {
    let file = std::env::temp_dir().join(format!(
        "defines-store-evictions-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&file);

    let fill: Vec<String> = [(60, 72), (240, 270), (120, 135)]
        .map(|tile| request("fsrcnn", tile))
        .into();
    let first = life(&file, 0, &fill);
    let persisted = stat(&first, "store", "entries");
    assert_eq!(stat(&first, "serve", "evictions"), 0, "{first}");

    // Reopened under a bound of 4: opening evicts all but 4 of the 292
    // entries, and each batch's sync evicts again. Counting only the syncs,
    // `serve.evictions` read 132 here.
    let more: Vec<String> = [(30, 36), (480, 540)]
        .map(|tile| request("fsrcnn", tile))
        .into();
    let second = life(&file, 4, &more);
    let _ = std::fs::remove_file(&file);
    let evicted = stat(&second, "store", "evicted");
    assert!(evicted > persisted - 4, "{second}");
    assert_eq!(stat(&second, "serve", "evictions"), evicted, "{second}");
    assert_eq!((persisted, evicted), (292, 420), "{first}\n{second}");
}
