//! Property-based tests for the toolchain substrate: linker resolution
//! invariants, objcopy complementarity, semantics determinism, and the
//! performance model's sanity envelope.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use flit_toolchain::compilation::{mfem_matrix, Compilation};
use flit_toolchain::compiler::{CompilerKind, OptLevel};
use flit_toolchain::linker::{self, Executable, LinkError};
use flit_toolchain::object::{Linkage, ObjectFile, SymbolEntry};
use flit_toolchain::perf::{fnv1a, jitter, speed_factor, KernelClass};

fn object(file_id: usize, compiler: CompilerKind, symbols: Vec<SymbolEntry>) -> ObjectFile {
    ObjectFile {
        file_id,
        file_name: format!("f{file_id}.cpp"),
        compilation: Compilation::new(compiler, OptLevel::O2, vec![]),
        pic: false,
        build_tag: 0,
        symbols,
    }
}

/// A symbol with a placeholder id; [`link`] stamps the real ones.
fn sym(name: String, linkage: Linkage) -> SymbolEntry {
    SymbolEntry {
        name,
        id: 0,
        linkage,
    }
}

/// Stamp dense ids the way a program does (equal names, equal ids, in
/// first-seen order) and link.
fn link(mut objects: Vec<ObjectFile>, driver: CompilerKind) -> Result<Executable, LinkError> {
    let mut ids: HashMap<String, u32> = HashMap::new();
    for sym in objects.iter_mut().flat_map(|o| &mut o.symbols) {
        let next = ids.len() as u32;
        sym.id = *ids.entry(sym.name.clone()).or_insert(next);
    }
    linker::link(objects.into_iter().map(Arc::new).collect(), driver)
}

/// The name-keyed resolver `link` used before symbol ids: the reference
/// the id-indexed tables must agree with. `Err` names the duplicate.
fn reference_resolve(objects: &[ObjectFile]) -> Result<HashMap<String, usize>, String> {
    let mut globals: HashMap<String, usize> = HashMap::new();
    let mut strong: HashMap<String, usize> = HashMap::new();
    for (idx, obj) in objects.iter().enumerate() {
        for sym in &obj.symbols {
            match sym.linkage {
                Linkage::Local => {}
                Linkage::Strong => {
                    if strong.contains_key(&sym.name) {
                        return Err(sym.name.clone());
                    }
                    strong.insert(sym.name.clone(), idx);
                    globals.insert(sym.name.clone(), idx);
                }
                Linkage::Weak => {
                    globals.entry(sym.name.clone()).or_insert(idx);
                }
            }
        }
    }
    for (name, idx) in &strong {
        globals.insert(name.clone(), *idx);
    }
    Ok(globals)
}

/// Names drawn by the resolver property: few, so they collide.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

proptest! {
    /// objcopy complementarity: weakening S in one copy and ¬S in the
    /// other leaves every exported symbol strong in exactly one copy,
    /// for every subset S.
    #[test]
    fn weaken_pair_partitions_symbols(
        names in prop::collection::btree_set("[a-z]{1,8}", 1..10),
        pick_bits in prop::collection::vec(any::<bool>(), 10),
    ) {
        let symbols: Vec<SymbolEntry> = names
            .iter()
            .map(|n| sym(n.clone(), Linkage::Strong))
            .collect();
        let obj = object(0, CompilerKind::Gcc, symbols);
        let picked: BTreeSet<String> = names
            .iter()
            .zip(&pick_bits)
            .filter(|(_, &b)| b)
            .map(|(n, _)| n.clone())
            .collect();
        let a = obj.weaken(&picked);
        let b = obj.weaken_except(&picked);
        for n in &names {
            let strong_a = a.linkage_of(n) == Some(Linkage::Strong);
            let strong_b = b.linkage_of(n) == Some(Linkage::Strong);
            prop_assert!(strong_a ^ strong_b, "{n}");
        }
        // And the pair always links (no duplicate strong symbols).
        prop_assert!(link(vec![a, b], CompilerKind::Gcc).is_ok());
    }

    /// Linker resolution is order-independent when strong definitions
    /// exist: the strong definition wins regardless of object order.
    #[test]
    fn strong_wins_any_order(strong_first in any::<bool>()) {
        let weak = object(0, CompilerKind::Gcc, vec![sym("f".into(), Linkage::Weak)]);
        let strong = object(1, CompilerKind::Gcc, vec![sym("f".into(), Linkage::Strong)]);
        let objects = if strong_first {
            vec![strong.clone(), weak.clone()]
        } else {
            vec![weak.clone(), strong.clone()]
        };
        let exe = link(objects, CompilerKind::Gcc).unwrap();
        let def = exe.defining_object("f").unwrap();
        prop_assert_eq!(exe.objects[def].file_id, 1);
    }

    /// Two strong definitions always fail, whatever else is present.
    #[test]
    fn duplicate_strong_always_errors(extra in 0usize..5) {
        let mut objects = vec![
            object(0, CompilerKind::Gcc, vec![sym("dup".into(), Linkage::Strong)]),
            object(1, CompilerKind::Gcc, vec![sym("dup".into(), Linkage::Strong)]),
        ];
        for i in 0..extra {
            objects.push(object(2 + i, CompilerKind::Gcc, vec![sym(format!("u{i}"), Linkage::Strong)]));
        }
        prop_assert!(matches!(
            link(objects, CompilerKind::Gcc),
            Err(LinkError::DuplicateSymbol(_))
        ));
    }

    /// Compilation semantics are a pure function: fp_env is identical
    /// across calls, and the baseline maps to strict semantics only for
    /// the baseline itself.
    #[test]
    fn fp_env_is_pure(idx in 0usize..244) {
        let comp = mfem_matrix()[idx].clone();
        prop_assert_eq!(comp.fp_env(), comp.fp_env());
        prop_assert_eq!(
            comp.fp_env_linked(CompilerKind::Gcc),
            comp.fp_env_linked(CompilerKind::Gcc)
        );
        // The Intel link always selects the vendor library; the GNU
        // link never does.
        prop_assert_eq!(
            comp.fp_env_linked(CompilerKind::Icpc).mathlib,
            flit_fpsim::env::MathLib::Vendor
        );
        prop_assert_eq!(
            comp.fp_env_linked(CompilerKind::Gcc).mathlib,
            flit_fpsim::env::MathLib::Reference
        );
    }

    /// The performance model stays within a sane envelope for the whole
    /// matrix, and jitter is small, deterministic, and workload-keyed.
    #[test]
    fn perf_model_envelope(idx in 0usize..244, class_idx in 0usize..6) {
        let comp = mfem_matrix()[idx].clone();
        let class = KernelClass::ALL[class_idx];
        let f = speed_factor(&comp, class);
        prop_assert!(f > 0.15 && f < 4.0, "{}: {f}", comp.label());
        let j = jitter("some-test", &comp);
        prop_assert!((0.975..=1.025).contains(&j));
        prop_assert_eq!(j.to_bits(), jitter("some-test", &comp).to_bits());
    }

    /// ABI-hazard crashes only ever happen for Intel/GNU mixes, and the
    /// verdict is deterministic in the salt.
    #[test]
    fn crash_verdicts_are_deterministic(salt in any::<u64>(), mixed in any::<bool>()) {
        let a = object(0, CompilerKind::Gcc, vec![sym("f".into(), Linkage::Strong)]);
        let b = object(
            1,
            if mixed { CompilerKind::Icpc } else { CompilerKind::Clang },
            vec![sym("g".into(), Linkage::Strong)],
        );
        let exe = link(vec![a, b], CompilerKind::Gcc).unwrap();
        prop_assert_eq!(exe.abi_hazard, mixed);
        prop_assert_eq!(exe.crashes(salt), exe.crashes(salt));
        if !mixed {
            prop_assert!(!exe.crashes(salt));
        }
    }

    /// The id-indexed resolution equals the name-keyed reference on
    /// random object lists: duplicate strong symbols, weak before
    /// strong, locals, and one name defined in several objects. The
    /// hazard seed is FNV-1a of the per-object
    /// `"{file_id}:{label}:{pic};"` string, bit for bit.
    #[test]
    fn id_link_matches_the_name_keyed_reference(
        specs in prop::collection::vec(
            (
                0usize..244,
                any::<bool>(),
                0usize..8,
                prop::collection::vec((0usize..6, 0u8..5), 0..6),
            ),
            1..6,
        ),
    ) {
        let matrix = mfem_matrix();
        let objects: Vec<ObjectFile> = specs
            .iter()
            .map(|(comp, pic, file_id, syms)| {
                let mut o = object(
                    *file_id,
                    CompilerKind::Gcc,
                    syms.iter()
                        .map(|&(n, l)| {
                            // Strong is one draw in five, so both the
                            // error and the success path are common.
                            let linkage = match l {
                                0 => Linkage::Strong,
                                1 | 2 => Linkage::Weak,
                                _ => Linkage::Local,
                            };
                            sym(NAMES[n].to_string(), linkage)
                        })
                        .collect(),
                );
                o.compilation = if *pic { matrix[*comp].with_pic() } else { matrix[*comp].clone() };
                o.pic = *pic;
                o
            })
            .collect();
        let reference = reference_resolve(&objects);
        let linked = link(objects.clone(), CompilerKind::Gcc);
        match (reference, linked) {
            (Err(dup), Err(LinkError::DuplicateSymbol(name))) => prop_assert_eq!(dup, name),
            (Ok(globals), Ok(exe)) => {
                for name in NAMES {
                    prop_assert_eq!(exe.defining_object(name), globals.get(name).copied(), "{}", name);
                }
                let mut seed_input = String::new();
                for o in &objects {
                    seed_input.push_str(&format!("{}:{}:{};", o.file_id, o.compilation.label(), o.pic));
                }
                prop_assert_eq!(exe.hazard_seed, fnv1a(seed_input.as_bytes()));
            }
            (reference, linked) => {
                prop_assert!(false, "reference {:?} vs link {:?}", reference, linked.map(|e| e.globals));
            }
        }
    }

    /// Compilation labels are unique across the whole MFEM matrix
    /// (the CLI's label → Compilation parser depends on this).
    #[test]
    fn labels_are_unique(i in 0usize..244, j in 0usize..244) {
        let m = mfem_matrix();
        if i != j {
            prop_assert_ne!(m[i].label(), m[j].label());
        }
    }
}
