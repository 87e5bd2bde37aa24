//! `BPI_TRACE=json` installs the stderr sink on the first
//! instrumented call. This is its own test binary so that nothing has
//! consulted the variable before the test sets it.

use std::sync::mpsc;
use std::time::Duration;

#[test]
fn bpi_trace_json_installs_the_sink_without_blocking() {
    std::env::set_var("BPI_TRACE", "json");
    let (tx, rx) = mpsc::channel();
    // A hang must fail the test, not stall the suite: probe on a
    // detached thread and wait with a timeout.
    std::thread::spawn(move || {
        let _ = tx.send(bpi_obs::tracing_enabled());
    });
    let enabled = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the first tracing_enabled() call under BPI_TRACE=json blocked");
    assert!(enabled, "BPI_TRACE=json must install a sink");
}
