//! Talking to `ucsim-serve` through the repository's own client.

use ucsim::model::{Json, ToJson};
use ucsim::pipeline::SimConfig;
use ucsim::serve::{Client, RetryPolicy};

use crate::sys::{Bins, ServeProc};

/// A client that never retries, so every error counts against the run.
pub fn client(addr: &str) -> Client {
    Client::with_retry(addr, RetryPolicy::none())
}

/// Sends one request and returns the body of a 2xx answer.
///
/// # Errors
///
/// The I/O error, or the status and body of a non-2xx answer.
pub fn call(c: &mut Client, method: &str, path: &str, body: &[u8]) -> Result<String, String> {
    let resp = c
        .request(method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let text = String::from_utf8(resp.body).map_err(|_| format!("{method} {path}: not UTF-8"))?;
    if (200..300).contains(&resp.status) {
        Ok(text)
    } else {
        Err(format!("{method} {path} answered {}: {text}", resp.status))
    }
}

/// Parses a JSON answer.
///
/// # Errors
///
/// The parse error.
pub fn json(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| e.to_string())
}

/// Reads an unsigned member at `path` (`a.b.c`) of a JSON answer.
///
/// # Errors
///
/// Names the missing member.
pub fn uint(doc: &Json, path: &str) -> Result<u64, String> {
    path.split('.')
        .try_fold(doc, |v, k| v.get(k))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("answer lacks {path}"))
}

/// Checks that the service has executed exactly `want` simulations
/// (`workers.jobs_executed`).
///
/// # Errors
///
/// A failed request, a malformed answer or a different count.
pub fn audit(c: &mut Client, want: u64) -> Result<(), String> {
    let metrics = json(&call(c, "GET", "/v1/metrics", b"")?)?;
    crate::checks::check_simulations(uint(&metrics, "workers.jobs_executed")?, want)
}

/// The `POST /v1/sim` body of one foreground job.
pub fn sim_body(workload: &str, seed: u64, cfg: &SimConfig) -> String {
    Json::Obj(vec![
        ("workload".to_owned(), Json::Str(workload.to_owned())),
        ("seed".to_owned(), Json::Uint(seed)),
        ("config".to_owned(), cfg.to_json()),
    ])
    .to_string()
}

/// Server flags for one simulation at a time: with one operation in
/// flight a second worker only races the benchmark and other tenants for
/// the host's CPUs.
pub fn one_worker() -> Vec<String> {
    vec!["--workers".to_owned(), "1".to_owned()]
}

/// Starts a server and waits until a fresh connection is answered.
///
/// # Errors
///
/// A message when it does not start or answer.
pub fn start(bins: &Bins, args: &[String]) -> Result<ServeProc, String> {
    let server = ServeProc::spawn(&bins.serve, args)?;
    call(&mut client(&server.addr), "GET", "/v1/healthz", b"")?;
    Ok(server)
}
