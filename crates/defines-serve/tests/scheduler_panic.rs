//! A panic on the daemon's scheduler thread answers the batch it hit with an
//! error line and leaves the daemon serving: the next request is computed and
//! answered with the same bytes as a standalone run.

use defines_serve::{render_outcome, send_line, Resolver, ScheduleRequest, Server, ServerConfig};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Resolves fsrcnn on meta-proto-df, and panics for the workload `"boom"`.
struct PanickingResolver;

impl Resolver for PanickingResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        match spec {
            "fsrcnn" => Ok(defines_workload::models::fsrcnn()),
            "boom" => panic!("resolver exploded on '{spec}'"),
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

fn request_line(workload: &str) -> String {
    format!(
        r#"{{"workload":"{workload}","accelerator":"meta-proto-df","dfmode":"3","fuse":"full","tilex":[60],"tiley":[72]}}"#
    )
}

/// Sends one line and reads the response, failing instead of hanging when
/// the daemon never answers.
fn send_with_timeout(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    writeln!(stream, "{line}").expect("send request");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .unwrap_or_else(|e| panic!("no response to {line}: {e}"));
    response.trim_end_matches('\n').to_string()
}

#[test]
fn a_scheduler_panic_answers_with_an_error_and_the_daemon_keeps_serving() {
    let config = ServerConfig {
        fast_mapper: true,
        ..ServerConfig::default()
    };
    let server = Server::bind(config.clone(), Box::new(PanickingResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Twice: the failure is not memoized, the second request panics anew.
    for _ in 0..2 {
        let response = send_with_timeout(&addr, &request_line("boom"));
        let value: Value = serde_json::from_str(&response).expect("response is JSON");
        let error = value.get("error").and_then(Value::as_str);
        assert!(
            error.is_some_and(|e| e.starts_with("internal error: resolver exploded")),
            "{response}"
        );
    }

    let line = request_line("fsrcnn");
    let request = ScheduleRequest::from_value(&serde_json::from_str(&line).unwrap()).unwrap();
    let item = request.to_batch_item(
        defines_arch::zoo::meta_proto_like_df(),
        defines_workload::models::fsrcnn(),
    );
    let batch_config = defines_core::BatchConfig {
        fast_mapper: config.fast_mapper,
        budget: config.budget,
        ..defines_core::BatchConfig::default()
    };
    let expected = render_outcome(
        &request,
        &defines_core::run_batch(&[item], &batch_config)[0],
    );
    assert_eq!(send_with_timeout(&addr, &line), expected);

    send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    server_thread.join().unwrap();
}
