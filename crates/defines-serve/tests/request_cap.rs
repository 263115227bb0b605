//! The daemon reads at most [`MAX_REQUEST_LINE_BYTES`] of a request line: a
//! longer line is answered with the protocol's error response, and the daemon
//! keeps serving new connections afterwards.

use defines_serve::{send_line, Resolver, Server, ServerConfig, MAX_REQUEST_LINE_BYTES};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

/// Resolves nothing: this test only sends over-long lines and commands.
struct NoResolver;

impl Resolver for NoResolver {
    fn workload(&self, spec: &str) -> Result<defines_workload::Network, String> {
        Err(format!("unknown workload '{spec}'"))
    }

    fn accelerator(&self, spec: &str) -> Result<defines_arch::Accelerator, String> {
        Err(format!("unknown accelerator '{spec}'"))
    }
}

#[test]
fn over_long_request_line_gets_an_error_and_the_daemon_keeps_serving() {
    let server = Server::bind(ServerConfig::default(), Box::new(NoResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let line = vec![b'x'; MAX_REQUEST_LINE_BYTES as usize + 1];
    stream.write_all(&line).expect("send over-long line");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read error response");
    let value: Value = serde_json::from_str(response.trim_end()).expect("response is JSON");
    assert_eq!(
        value.get("ok").and_then(Value::as_bool),
        Some(false),
        "{response}"
    );
    let error = value
        .get("error")
        .and_then(Value::as_str)
        .unwrap_or_default();
    assert!(error.contains("exceeds"), "{response}");

    let pong = send_line(&addr, r#"{"cmd":"ping"}"#).expect("ping after the over-long line");
    assert!(pong.contains("\"pong\":true"), "{pong}");

    send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    server_thread.join().unwrap();
}
