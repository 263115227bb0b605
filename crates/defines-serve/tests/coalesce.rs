//! Concurrency test for the daemon's request coalescing: N client threads
//! firing identical and distinct requests concurrently get exactly the same
//! bytes a serial client would, with every duplicate folded into one
//! computation (accounting identity: `requests == memo_hits + batched +
//! computed`, and `computed` == distinct requests).

use defines_serve::{render_outcome, send_line, Resolver, ScheduleRequest, Server, ServerConfig};
use serde::Value;

/// A minimal resolver over the two zoo objects this test uses.
struct ZooResolver;

impl Resolver for ZooResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        match spec {
            "fsrcnn" => Ok(defines_workload::models::fsrcnn()),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        match spec {
            "meta-proto-df" => Ok(defines_arch::zoo::meta_proto_like_df()),
            other => Err(format!("unknown accelerator '{other}'")),
        }
    }
}

/// A request line over the tile/mode axes (fsrcnn × meta-proto-df fixed).
fn request_line(dfmode: &str, tile: (u64, u64)) -> String {
    format!(
        r#"{{"workload":"fsrcnn","accelerator":"meta-proto-df","dfmode":"{dfmode}","fuse":"full","tilex":[{}],"tiley":[{}]}}"#,
        tile.0, tile.1
    )
}

/// Serial ground truth: the same request through a fresh single-item batch.
fn serial_answer(line: &str, config: &ServerConfig) -> String {
    let value = serde_json::from_str(line).expect("request line parses");
    let request = ScheduleRequest::from_value(&value).expect("request is valid");
    let resolver = ZooResolver;
    let item = request.to_batch_item(
        resolver.accelerator(&request.accelerator).unwrap(),
        resolver.workload(&request.workload).unwrap(),
    );
    let batch_config = defines_core::BatchConfig {
        fast_mapper: config.fast_mapper,
        budget: config.budget,
        ..defines_core::BatchConfig::default()
    };
    let outcomes = defines_core::run_batch(&[item], &batch_config);
    render_outcome(&request, &outcomes[0])
}

/// Extracts `"name":<digits>` from a stats response line.
fn stat(stats: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = stats
        .find(&pat)
        .unwrap_or_else(|| panic!("no {name} in {stats}"));
    stats[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("stat value")
}

#[test]
fn concurrent_identical_and_distinct_requests_coalesce() {
    let config = ServerConfig {
        workers: 8,
        fast_mapper: true,
        ..ServerConfig::default()
    };
    let serial_config = config.clone();
    let server = Server::bind(config, Box::new(ZooResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Five distinct requests; the first is also fired by three extra
    // duplicate clients, all concurrently.
    let distinct: Vec<String> = vec![
        request_line("3", (60, 72)),
        request_line("3", (48, 48)),
        request_line("1", (60, 72)),
        request_line("2", (32, 32)),
        request_line("13", (30, 36)),
    ];
    let mut lines: Vec<&str> = distinct.iter().map(String::as_str).collect();
    lines.extend([distinct[0].as_str(); 3]);

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = lines
            .iter()
            .map(|line| {
                let addr = addr.clone();
                scope.spawn(move || send_line(&addr, line).expect("request round-trip"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every duplicate of request 0 got byte-identical answers.
    for dup in &responses[5..] {
        assert_eq!(*dup, responses[0], "duplicate clients diverged");
    }
    // Every response matches its serial ground truth, byte for byte —
    // coalescing and batch siblings changed nothing.
    for (line, response) in lines.iter().zip(&responses).take(5) {
        assert_eq!(
            *response,
            serial_answer(line, &serial_config),
            "coalesced answer differs from a serial run of {line}"
        );
        let ok = serde_json::from_str(response)
            .ok()
            .and_then(|v: Value| v.get("ok").and_then(Value::as_bool));
        assert_eq!(ok, Some(true), "{response}");
    }

    // Accounting: 8 requests, 5 computed (each distinct key exactly once),
    // and the 3 duplicates either joined a computation in flight (batched)
    // or arrived after it finished (memo hit) — timing decides which, the
    // sum does not.
    let stats = send_line(&addr, r#"{"cmd":"stats"}"#).expect("stats");
    assert_eq!(stat(&stats, "requests"), 8, "{stats}");
    assert_eq!(stat(&stats, "computed"), 5, "{stats}");
    assert_eq!(
        stat(&stats, "memo_hits") + stat(&stats, "batched"),
        3,
        "{stats}"
    );

    // A serial second wave is pure memo: no new computation.
    for line in &distinct {
        let again = send_line(&addr, line).expect("second wave");
        assert_eq!(again, serial_answer(line, &serial_config));
    }
    let stats = send_line(&addr, r#"{"cmd":"stats"}"#).expect("stats");
    assert_eq!(stat(&stats, "requests"), 13, "{stats}");
    assert_eq!(stat(&stats, "computed"), 5, "{stats}");
    assert_eq!(stat(&stats, "memo_hits") + stat(&stats, "batched"), 8);

    let bye = send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    assert!(bye.contains("\"shutdown\":true"), "{bye}");
    server_thread.join().expect("server thread");
}
