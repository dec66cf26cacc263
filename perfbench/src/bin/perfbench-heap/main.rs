//! Peak heap while the engine's warm state is built, for the
//! `engine.state_heap_mb` metric of the repository benchmark.
//!
//! ```text
//! perfbench-heap --corpus DIR
//! ```
//!
//! Absorbs the base documents `b0.xml`, `b1.xml`, ... of the corpus
//! directory into one `EngineState`, as the CLI and serve do, and prints
//! the highest number of heap MiB that were live at once beyond those live
//! when it began. This is a binary of its own because its counting global
//! allocator would slow every timing of `perfbench-trace`.

mod heap;

use dtdinfer_engine::{EngineState, ParseArena};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [flag, dir] = args.as_slice() else {
        eprintln!("usage: perfbench-heap --corpus DIR");
        return ExitCode::FAILURE;
    };
    if flag != "--corpus" {
        eprintln!("usage: perfbench-heap --corpus DIR");
        return ExitCode::FAILURE;
    }
    let mut docs = Vec::new();
    while let Ok(doc) = std::fs::read_to_string(format!("{dir}/b{}.xml", docs.len())) {
        docs.push(doc);
    }
    let (state, peak) = heap::peak_during(|| {
        let mut state = EngineState::new();
        let mut arena = ParseArena::new();
        for doc in &docs {
            state.absorb_document_with(doc, &mut arena)?;
        }
        Ok::<EngineState, dtdinfer_xml::XmlError>(state)
    });
    match state {
        Ok(state) if state.num_documents > 0 => {
            println!("{}", peak as f64 / (1024.0 * 1024.0));
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("perfbench-heap: no b*.xml documents in {dir}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench-heap: {e}");
            ExitCode::FAILURE
        }
    }
}
