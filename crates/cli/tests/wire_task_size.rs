//! Size of a search task on the process wire: a by-reference task
//! carries only its search context, while the self-contained task
//! still carries (and round-trips) both programs.

use flit_bisect::wire::{ProgramSlot, WireTask};
use flit_core::test::FlitTest;
use flit_program::build::Build;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::compiler::CompilerKind;

/// Upper bound on a by-reference task body.
const BY_REF_LIMIT_BYTES: usize = 4 << 10;

#[test]
fn a_by_reference_mfem_task_is_a_few_hundred_bytes() {
    let app = flit_cli::resolve_app("mfem").unwrap();
    let comp = flit_cli::args::parse_compilation("g++ -O3 -mavx2 -mfma").unwrap();
    let baseline = Build::new(&app.program, Compilation::baseline());
    let variable = Build::tagged(&app.program, comp, 1);
    let test = &app.tests[0];
    let input = test.default_input();

    let by_ref = WireTask::capture_refs(
        &baseline,
        &variable,
        test.driver(),
        &input,
        CompilerKind::Gcc,
    )
    .to_wire();
    assert!(
        by_ref.len() <= BY_REF_LIMIT_BYTES,
        "by-reference task is {} bytes",
        by_ref.len()
    );

    let inline = WireTask::capture(
        &baseline,
        &variable,
        test.driver(),
        &input,
        CompilerKind::Gcc,
    )
    .to_wire();
    assert!(
        inline.len() > 100 * by_ref.len(),
        "inline task is only {} bytes",
        inline.len()
    );
    let back: WireTask = serde_json::from_str(&inline).unwrap();
    for slot in [&back.baseline_program, &back.variable_program] {
        let ProgramSlot::Inline { program } = slot else {
            panic!("capture carries programs inline");
        };
        assert_eq!(program.content_digest(), app.program.content_digest());
    }
    assert_eq!(back.to_wire(), inline);
}
