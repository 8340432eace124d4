//! The `flit worker` subcommand: the worker half of the `process`
//! execution backend.
//!
//! A worker is a plain subprocess speaking the CRC-framed
//! [`flit_exec::process`] protocol over stdin/stdout: the coordinator
//! registers search tasks (serialized [`flit_bisect::wire::WireTask`]
//! bodies) under their digests, then streams Test/Time queries;
//! answers use the checkpoint-journal record schema, so the
//! coordinator's ledger cannot tell a worker answer from a local one.
//! Programs arrive once per worker: a task names them by content
//! digest, and the worker keeps every program it was sent inline.
//!
//! Custom kernels ([`flit_program::Kernel::Custom`] holds a trait
//! object) travel by *name* on the wire, so before serving anything
//! the worker registers every custom kernel reachable from the
//! bundled applications — the same set a coordinator built from
//! [`crate::apps`] can reference.

use crate::apps::{app_names, resolve_app};
use flit_exec::{serve_worker, WORKER_EXIT_AFTER_ENV};

/// Register every custom kernel used by the bundled applications, so
/// serialized programs referencing them deserialize in this process.
fn register_bundled_kernels() {
    for name in app_names() {
        let app = resolve_app(name).expect("listed apps resolve");
        for file in &app.program.files {
            for function in &file.functions {
                if let flit_program::Kernel::Custom(imp) = &function.kernel {
                    flit_program::register_custom_kernel(imp.clone());
                }
            }
        }
    }
}

/// Serve queries from stdin until the coordinator closes the pipe.
///
/// `FLIT_WORKER_EXIT_AFTER=n` (set by the coordinator's kill schedule)
/// makes the worker exit cleanly right before its `n`-th answer, which
/// is how crash recovery is exercised deterministically in tests.
pub fn run_worker() -> std::io::Result<()> {
    register_bundled_kernels();
    let exit_after = std::env::var(WORKER_EXIT_AFTER_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_worker(
        stdin.lock(),
        stdout.lock(),
        exit_after,
        flit_bisect::wire::evaluate,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_custom_kernels_round_trip_after_registration() {
        register_bundled_kernels();
        // LULESH is the app with `Kernel::Custom` bodies: its program
        // must survive a serde round trip once the registry is primed.
        let app = resolve_app("lulesh").expect("lulesh is bundled");
        use serde::{Deserialize, Serialize};
        let value = app.program.to_value();
        let back = flit_program::SimProgram::from_value(&value).expect("round trip");
        assert_eq!(back.fingerprint(), app.program.fingerprint());
    }

    #[test]
    fn every_bundled_program_keeps_its_content_digest_across_the_wire() {
        // A worker interns an inline program under the digest it
        // computes itself; a coordinator's reference only resolves if
        // both sides agree.
        register_bundled_kernels();
        for name in app_names() {
            let app = resolve_app(name).expect("listed apps resolve");
            let json = serde_json::to_string(&app.program).expect("program serializes");
            let back: flit_program::SimProgram =
                serde_json::from_str(&json).expect("program parses");
            assert_eq!(
                back.content_digest(),
                app.program.content_digest(),
                "{name}"
            );
        }
    }
}
