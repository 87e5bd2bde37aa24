//! Session-sharded term store.
//!
//! Concurrent tenants name a `session`; each session owns a definition
//! environment and a parse cache, so repeated jobs against the same
//! terms skip the parser and — because `Defs` generations key the
//! semantic caches — share warm transition caches process-wide. The hash-consing interner underneath is global, so two
//! sessions submitting the same term still share one tree.
//!
//! Sessions are soft state: the journal records every `defs` update, so
//! recovery rebuilds the store before re-admitting in-flight jobs.

use bpi_core::parser::{parse_defs, parse_process};
use bpi_core::syntax::{Defs, P};
use std::collections::HashMap;
use std::sync::Mutex;

#[derive(Default)]
struct Session {
    defs: Defs,
    /// Source-text → parsed-term cache. Bounded: cleared wholesale when
    /// it outgrows `PARSE_CACHE_CAP` (simple, and a miss only costs a
    /// re-parse).
    parsed: HashMap<String, P>,
}

const PARSE_CACHE_CAP: usize = 1024;

/// The store proper. One mutex over all sessions is enough: critical
/// sections are a map lookup plus (rarely) a parse.
#[derive(Default)]
pub struct Store {
    sessions: Mutex<HashMap<String, Session>>,
}

impl Store {
    pub fn new() -> Store {
        Store::default()
    }

    /// Replaces the session's definition environment. Returns the number
    /// of definitions parsed.
    pub fn set_defs(&self, session: &str, src: &str) -> Result<usize, String> {
        let defs = parse_defs(src).map_err(|e| e.to_string())?;
        let n = defs.len();
        let mut g = self.sessions.lock().unwrap();
        let s = g.entry(session.to_string()).or_default();
        s.defs = defs;
        // Definitions changed: cached terms are still valid syntax, but
        // flushing keeps the cache honest about what was parsed when.
        s.parsed.clear();
        Ok(n)
    }

    /// The session's current definition environment (empty for unknown
    /// sessions — every session implicitly exists with no definitions).
    pub fn defs(&self, session: &str) -> Defs {
        self.sessions
            .lock()
            .unwrap()
            .get(session)
            .map(|s| s.defs.clone())
            .unwrap_or_default()
    }

    /// Parses a process in the session's scope, through the cache.
    pub fn parse(&self, session: &str, src: &str) -> Result<P, String> {
        let mut g = self.sessions.lock().unwrap();
        let s = g.entry(session.to_string()).or_default();
        if let Some(p) = s.parsed.get(src) {
            return Ok(p.clone());
        }
        let p = parse_process(src).map_err(|e| e.to_string())?;
        if s.parsed.len() >= PARSE_CACHE_CAP {
            s.parsed.clear();
        }
        s.parsed.insert(src.to_string(), p.clone());
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_are_isolated_and_cached() {
        let st = Store::new();
        st.set_defs("a", "Ping(x) = x<>.Ping<x>;").unwrap();
        assert_eq!(st.defs("a").len(), 1);
        assert_eq!(st.defs("b").len(), 0);

        let p1 = st.parse("a", "a<v> | a(x).x<>").unwrap();
        let p2 = st.parse("a", "a<v> | a(x).x<>").unwrap();
        assert_eq!(p1, p2);
        assert!(st.parse("a", "a<v> |").is_err());

        // Redefining flushes the parse cache but keeps the session.
        st.set_defs("a", "Pong(x) = x(y).Pong<x>;").unwrap();
        assert_eq!(st.defs("a").len(), 1);
    }
}
