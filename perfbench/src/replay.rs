//! Sans-io replay of an ingest phase's sessions: `ClientSession` and
//! `ServerSession` exchange bytes in memory, and the client's bytes reach
//! the server through `LineCodec::feed`/`next_frame` in 4096-byte chunks,
//! the server's read size. Time in the codec and in the server session
//! is measured separately; the rest (client state machine, dot-stuffing,
//! copying) is the replay's residual.

use crate::ingest::request_id;
use crate::inputs::{Planned, PoolMsg};
use ets_smtp::client::{ClientAction, ClientSession, Email};
use ets_smtp::codec::{Frame, LineCodec};
use ets_smtp::reply::Reply;
use ets_smtp::session::{ServerAction, ServerPolicy, ServerSession};
use std::time::Instant;

/// The server's read size.
const CHUNK: usize = 4096;

/// Replay totals.
#[derive(Debug, Default)]
pub struct Replay {
    pub codec_s: f64,
    pub session_s: f64,
    pub wall_s: f64,
    pub sessions: usize,
}

struct Server {
    session: ServerSession,
    codec: LineCodec,
    codec_ns: u128,
    session_ns: u128,
}

impl Server {
    fn new(policy: &ServerPolicy) -> Server {
        Server {
            session: ServerSession::new(policy.clone()),
            codec: LineCodec::new(),
            codec_ns: 0,
            session_ns: 0,
        }
    }

    /// Feeds client bytes and returns the last reply, or `None` when the
    /// bytes completed no frame. `closed` reports a server hang-up.
    fn receive(&mut self, bytes: &[u8]) -> (Option<Reply>, bool) {
        let mut last = None;
        for chunk in bytes.chunks(CHUNK) {
            let t = Instant::now();
            self.codec.feed(chunk);
            self.codec_ns += t.elapsed().as_nanos();
            loop {
                let t = Instant::now();
                let frame = self.codec.next_frame();
                self.codec_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                let action: ServerAction = match frame {
                    Ok(Some(Frame::Line(line))) => self.session.on_line(line),
                    Ok(Some(Frame::Data(payload))) => self.session.on_data(payload),
                    Ok(None) => break,
                    Err(_) => return (Some(Reply::new(500, "line too long")), true),
                };
                self.session_ns += t.elapsed().as_nanos();
                if action.enter_data {
                    self.codec.enter_data_mode();
                }
                std::hint::black_box(&action.event);
                if action.close {
                    return (Some(action.reply), true);
                }
                last = Some(action.reply);
            }
        }
        (last, false)
    }
}

fn deliver(server: &mut Server, email: Email, helo: &str) {
    let mut client = ClientSession::new(email, helo, false);
    let mut reply = server.session.greeting();
    loop {
        let (bytes, finished) = match client.on_reply(&reply) {
            ClientAction::SendLine(line) => (format!("{line}\r\n"), false),
            ClientAction::SendData(payload) => (payload, false),
            ClientAction::Finished(_) => ("QUIT\r\n".to_owned(), true),
        };
        let (next, closed) = server.receive(bytes.as_bytes());
        if finished || closed {
            return;
        }
        match next {
            Some(r) => reply = r,
            None => return,
        }
    }
}

/// Replays `plan` (phase `phase`) against fresh server sessions.
pub fn run(pool: &[PoolMsg], plan: &[Planned], phase: u64, policy: &ServerPolicy) -> Replay {
    let t0 = Instant::now();
    let mut codec_ns = 0u128;
    let mut session_ns = 0u128;
    for (j, planned) in plan.iter().enumerate() {
        let id = request_id(phase, 0, j);
        let mut server = Server::new(policy);
        match *planned {
            Planned::Deliver { pool: p } => {
                let m = &pool[p];
                let email =
                    Email::new(m.mail_from.clone(), vec![m.rcpt_to.clone()], m.wire_for(id));
                deliver(&mut server, email, &m.helo);
            }
            Planned::Bounce => {
                let scenario = ets_loadgen::scenario::Scenario::BounceProbe;
                if let Some(email) =
                    ets_loadgen::scenario::build_email(scenario, 0, id, "unused.invalid")
                {
                    deliver(&mut server, email, "probe.example");
                }
            }
            Planned::Malformed => {
                std::hint::black_box(server.session.greeting());
                server.receive(b"XYZZY plugh\r\nMAIL WITHOUT COLON\r\n");
            }
            Planned::SilentDrop => {
                std::hint::black_box(server.session.greeting());
            }
        }
        codec_ns += server.codec_ns;
        session_ns += server.session_ns;
    }
    Replay {
        codec_s: codec_ns as f64 / 1e9,
        session_s: session_ns as f64 / 1e9,
        wall_s: t0.elapsed().as_secs_f64(),
        sessions: plan.len(),
    }
}
