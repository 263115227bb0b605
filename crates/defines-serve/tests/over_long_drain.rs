//! The error line for an over-long request reaches the client even while the
//! client is still sending. Closing a socket that holds unread input makes
//! the kernel answer with a reset, and a reset can discard the error line
//! before the client reads it; so the daemon half-closes and drains what the
//! client still sends before it closes.

use defines_serve::{send_line, Resolver, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

/// Connections tried, one at a time. Before the drain the error line was lost
/// on a large share of them.
const ROUNDS: usize = 200;

/// What each client sends: four times the daemon's request-line cap.
const SEND_BYTES: usize = 4 << 20;

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
fn over_long_request_error_line_always_reaches_a_client_still_sending() {
    let server = Server::bind(ServerConfig::default(), Box::new(NoResolver)).expect("bind");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    for round in 0..ROUNDS {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone the socket");
        let sender = std::thread::spawn(move || {
            // Write errors are expected once the daemon stops reading.
            let chunk = vec![b'x'; 64 << 10];
            for _ in 0..SEND_BYTES / chunk.len() {
                if writer.write_all(&chunk).is_err() {
                    return;
                }
            }
            let _ = writer.shutdown(Shutdown::Write);
        });
        let mut response = String::new();
        let read = BufReader::new(&stream).read_line(&mut response);
        sender.join().expect("sender thread");
        if let Err(e) = read {
            panic!("round {round}: the error line was lost: {e}");
        }
        assert!(response.contains("exceeds"), "round {round}: {response:?}");
    }

    send_line(&addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
    server_thread.join().unwrap();
}
