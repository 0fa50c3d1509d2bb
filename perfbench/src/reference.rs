//! Grammar loading and the reference results timed parses are checked
//! against.
//!
//! The expected step count and tree size of every input come from the
//! tree-walking interpreter (`ipg_core::interp::Parser`), the repo's
//! reference semantics, run once at set-up. The engines under test (the
//! bytecode VM in-process, the parse service over its socket) must
//! reproduce them exactly on every timed call.

use crate::inputs::{Input, GRAMMARS};
use ipg_core::blackbox::Blackbox;
use ipg_core::interp::Parser;
use ipg_formats::{corpus_descriptors, Entry, Registry};

/// Loads the nine corpus grammars into a fresh registry through the
/// artifact cache named by `IPG_CACHE_DIR`, binding `inflate` (when
/// given) as `zip_inflate`'s DEFLATE blackbox instead of the stock one.
pub fn load_registry(inflate: Option<fn() -> Vec<Blackbox>>) -> Result<Registry, String> {
    let reg = Registry::new();
    for d in corpus_descriptors() {
        let blackboxes = match (d.name, inflate) {
            ("zip_inflate", Some(f)) => f(),
            _ => (d.blackboxes)(),
        };
        reg.load_spec(d.name, d.spec, blackboxes)
            .map_err(|e| format!("loading {}: {e}", d.name))?;
    }
    Ok(reg)
}

/// The registry's entries in [`GRAMMARS`] order.
pub fn entries(reg: &Registry) -> Vec<Entry> {
    GRAMMARS.iter().map(|g| reg.get(g).expect("corpus grammar registered")).collect()
}

/// What the reference interpreter says about one input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expect {
    pub steps: u64,
    /// Nodes in the parse tree.
    pub tree_size: usize,
}

/// Runs the reference interpreter over every input.
///
/// # Errors
///
/// An input the interpreter rejects: the seeded inputs must all be valid.
pub fn interpret(entries: &[Entry], inputs: &[Input]) -> Result<Vec<Expect>, String> {
    inputs
        .iter()
        .map(|inp| {
            let parser = Parser::new(entries[inp.grammar].grammar());
            let (tree, stats) = parser.parse_with_stats(&inp.bytes);
            let tree = tree.map_err(|e| {
                format!(
                    "reference interpreter rejects a {} input of {} bytes: {e}",
                    GRAMMARS[inp.grammar],
                    inp.bytes.len()
                )
            })?;
            Ok(Expect { steps: stats.steps, tree_size: tree.size() })
        })
        .collect()
}
