//! A small blocking client for the daemon, used by the integration
//! tests, the load generator in `bpi-bench` and `examples/serve.rs`.

use crate::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

pub struct Client {
    out: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true).ok();
        let reader = BufReader::new(out.try_clone()?);
        Ok(Client { out, reader })
    }

    /// One request/response round trip. The returned document is the
    /// daemon's response verbatim.
    pub fn roundtrip(&mut self, req: &Json) -> std::io::Result<Json> {
        self.out.write_all(format!("{req}\n").as_bytes())?;
        self.out.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        json::parse(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    pub fn defs(&mut self, session: &str, src: &str) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![
            ("op", Json::str("defs")),
            ("session", Json::str(session)),
            ("src", Json::str(src)),
        ]))
    }

    #[allow(clippy::too_many_arguments)]
    pub fn check(
        &mut self,
        id: &str,
        session: &str,
        variant: &str,
        left: &str,
        right: &str,
        priority: &str,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Json> {
        let mut req = vec![
            ("op", Json::str("check")),
            ("id", Json::str(id)),
            ("session", Json::str(session)),
            ("variant", Json::str(variant)),
            ("left", Json::str(left)),
            ("right", Json::str(right)),
            ("priority", Json::str(priority)),
        ];
        if let Some(ms) = deadline_ms {
            req.push(("deadline_ms", Json::num(ms as f64)));
        }
        self.roundtrip(&Json::obj(req))
    }

    pub fn explore(
        &mut self,
        id: &str,
        session: &str,
        src: &str,
        max_states: usize,
    ) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![
            ("op", Json::str("explore")),
            ("id", Json::str(id)),
            ("session", Json::str(session)),
            ("src", Json::str(src)),
            ("max_states", Json::num(max_states as f64)),
        ]))
    }

    #[allow(clippy::too_many_arguments)]
    pub fn reliability(
        &mut self,
        id: &str,
        session: &str,
        src: &str,
        watch: &str,
        loss: f64,
        seed: u64,
        max_steps: usize,
        samples: usize,
    ) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![
            ("op", Json::str("reliability")),
            ("id", Json::str(id)),
            ("session", Json::str(session)),
            ("src", Json::str(src)),
            ("watch", Json::str(watch)),
            ("loss", Json::num(loss)),
            ("seed", Json::num(seed as f64)),
            ("max_steps", Json::num(max_steps as f64)),
            ("samples", Json::num(samples as f64)),
        ]))
    }

    pub fn result_of(&mut self, id: &str) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![
            ("op", Json::str("result")),
            ("id", Json::str(id)),
        ]))
    }

    /// Polls `result` until the job leaves `pending` or the timeout
    /// passes — how recovery tests collect verdicts of jobs submitted
    /// before a crash.
    pub fn wait_result(&mut self, id: &str, timeout: Duration) -> std::io::Result<Json> {
        let t0 = Instant::now();
        loop {
            let r = self.result_of(id)?;
            if r.str_field("status") != Some("pending") {
                return Ok(r);
            }
            if t0.elapsed() > timeout {
                return Ok(r);
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![("op", Json::str("stats"))]))
    }

    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.roundtrip(&Json::obj(vec![("op", Json::str("shutdown"))]))
    }
}
