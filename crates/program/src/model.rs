//! The program model: source files, functions, drivers.

use std::collections::HashMap;
use std::sync::OnceLock;

use flit_toolchain::cache::RecipeHasher;
use flit_toolchain::compilation::Compilation;
use flit_toolchain::object::{Linkage, ObjectFile, SymbolEntry};
use flit_toolchain::perf::KernelClass;
use serde::{Deserialize, Serialize};

use crate::kernel::Kernel;
use crate::sites::Injection;

/// Symbol visibility at the source level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Visibility {
    /// Globally exported (a strong symbol in the object file).
    Exported,
    /// `static` / internal linkage (a local symbol: invisible to the
    /// linker, not interposable, always "inlined" into its TU).
    Static,
}

/// One function: a kernel, its linkage properties, and its callees.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Function {
    /// Unique (program-wide) symbol name.
    pub name: String,
    /// Linkage visibility.
    pub visibility: Visibility,
    /// Whether intra-TU callers may inline this function when the TU is
    /// compiled without `-fPIC`.
    pub inlinable: bool,
    /// The body.
    pub kernel: Kernel,
    /// Callee symbol names, invoked in order after the body runs.
    pub calls: Vec<String>,
    /// Modeled source lines (Table 3 statistics).
    pub sloc: u32,
    /// Work multiplier for the performance model (e.g. a mesh routine
    /// that moves far more data than its kernel's nominal cost).
    pub work_scale: f64,
    /// Active injection, if the injection pass has rewritten this
    /// function (`flit-inject`).
    pub injection: Option<Injection>,
}

impl Function {
    /// A plain exported function with defaults derived from the kernel.
    pub fn exported(name: impl Into<String>, kernel: Kernel) -> Self {
        Function {
            name: name.into(),
            visibility: Visibility::Exported,
            inlinable: false,
            kernel,
            calls: vec![],
            sloc: 18,
            work_scale: 1.0,
            injection: None,
        }
    }

    /// A `static` (local) function.
    pub fn local(name: impl Into<String>, kernel: Kernel) -> Self {
        Function {
            visibility: Visibility::Static,
            ..Function::exported(name, kernel)
        }
    }

    /// Builder: mark inlinable.
    pub fn inlinable(mut self) -> Self {
        self.inlinable = true;
        self
    }

    /// Builder: add callees.
    pub fn with_calls(mut self, calls: Vec<String>) -> Self {
        self.calls = calls;
        self
    }

    /// Builder: set modeled SLOC.
    pub fn with_sloc(mut self, sloc: u32) -> Self {
        self.sloc = sloc;
        self
    }

    /// Builder: set the performance-model work multiplier.
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        self.work_scale = scale;
        self
    }

    /// Performance class of the body.
    pub fn class(&self) -> KernelClass {
        self.kernel.class()
    }
}

/// One source file (one translation unit).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceFile {
    /// File name (e.g. `linalg/densemat.cpp`).
    pub name: String,
    /// The functions defined in this file.
    pub functions: Vec<Function>,
}

impl SourceFile {
    /// Create a file.
    pub fn new(name: impl Into<String>, functions: Vec<Function>) -> Self {
        SourceFile {
            name: name.into(),
            functions,
        }
    }

    /// Total modeled SLOC (functions plus a per-file header overhead).
    pub fn sloc(&self) -> u32 {
        12 + self.functions.iter().map(|f| f.sloc).sum::<u32>()
    }
}

/// A complete application: files, functions, and a symbol index.
#[derive(Debug, Clone)]
pub struct SimProgram {
    /// Program name.
    pub name: String,
    /// The source files. Edit bodies through
    /// [`SimProgram::function_mut`], which keeps the content digest
    /// honest.
    pub files: Vec<SourceFile>,
    index: HashMap<String, (usize, usize)>,
    /// Symbol id of each file's first function: function `gi` of file
    /// `fi` has id `first_id[fi] + gi`. Ids are dense, in file order,
    /// and a pure function of the structure the fingerprint covers, so
    /// structurally identical programs assign identical ids.
    first_id: Vec<u32>,
    /// Structural fingerprint: everything object files can depend on
    /// (file names, symbol names, visibility). Function *bodies* are
    /// excluded on purpose — the simulated compiler never encodes them
    /// into objects, so structurally identical programs (e.g. a clean
    /// and an injected copy) may share cached build artifacts.
    fingerprint: u64,
    /// Content digest (see [`SimProgram::content_digest`]), computed on
    /// first use.
    content_digest: OnceLock<String>,
}

impl SimProgram {
    /// Build a program, validating symbol uniqueness.
    ///
    /// # Panics
    /// If two functions share a name, or a call references an undefined
    /// symbol, or a `static` function is called from another file.
    pub fn new(name: impl Into<String>, files: Vec<SourceFile>) -> Self {
        let mut index = HashMap::new();
        let mut first_id = Vec::with_capacity(files.len());
        for (fi, file) in files.iter().enumerate() {
            first_id.push(index.len() as u32);
            for (gi, f) in file.functions.iter().enumerate() {
                let prev = index.insert(f.name.clone(), (fi, gi));
                assert!(prev.is_none(), "duplicate symbol `{}`", f.name);
            }
        }
        let mut h = RecipeHasher::new();
        for file in &files {
            h.write_str(&file.name);
            for f in &file.functions {
                h.write_str(&f.name);
                h.write_u64(match f.visibility {
                    Visibility::Exported => 0,
                    Visibility::Static => 1,
                });
            }
        }
        let prog = SimProgram {
            name: name.into(),
            files,
            index,
            first_id,
            fingerprint: h.finish(),
            content_digest: OnceLock::new(),
        };
        // Validate the call graph.
        for (fi, file) in prog.files.iter().enumerate() {
            for f in &file.functions {
                for callee in &f.calls {
                    let (cfi, cgi) = *prog
                        .index
                        .get(callee)
                        .unwrap_or_else(|| panic!("`{}` calls undefined `{callee}`", f.name));
                    let target = &prog.files[cfi].functions[cgi];
                    assert!(
                        target.visibility == Visibility::Exported || cfi == fi,
                        "`{}` calls static `{callee}` across files",
                        f.name
                    );
                }
            }
        }
        prog
    }

    /// The structural fingerprint used as the build-cache key component
    /// for this program (see the field docs for what it covers).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Content digest: the FNV-1a hex of the program's serialized JSON.
    /// Unlike the fingerprint it covers function bodies, so an injected
    /// copy digests differently from the clean program. It keys the
    /// worker-side program table that programs travel to by reference.
    /// Computed once per instance, on first use (serializing a large
    /// program costs milliseconds).
    pub fn content_digest(&self) -> &str {
        self.content_digest.get_or_init(|| {
            let json = serde_json::to_string(self).expect("program serializes");
            let mut h = RecipeHasher::new();
            h.write_str(&json);
            format!("{:016x}", h.finish())
        })
    }

    /// Look up a symbol: `(file index, function index)`.
    pub fn lookup(&self, symbol: &str) -> Option<(usize, usize)> {
        self.index.get(symbol).copied()
    }

    /// The dense symbol id of function `func_idx` of file `file_id` (the
    /// [`SymbolEntry::id`] [`SimProgram::compile_file`] stamps).
    pub(crate) fn symbol_id(&self, file_id: usize, func_idx: usize) -> u32 {
        self.first_id[file_id] + func_idx as u32
    }

    /// The function for a symbol.
    pub fn function(&self, symbol: &str) -> Option<&Function> {
        let (fi, gi) = self.lookup(symbol)?;
        Some(&self.files[fi].functions[gi])
    }

    /// Mutable access to a function (used by the injection pass).
    /// Invalidates the content digest.
    pub fn function_mut(&mut self, symbol: &str) -> Option<&mut Function> {
        let (fi, gi) = self.lookup(symbol)?;
        self.content_digest.take();
        Some(&mut self.files[fi].functions[gi])
    }

    /// Total number of functions.
    pub fn total_functions(&self) -> usize {
        self.files.iter().map(|f| f.functions.len()).sum()
    }

    /// Number of exported functions (the paper's "functions which are
    /// exported symbols", Table 3).
    pub fn exported_functions(&self) -> usize {
        self.files
            .iter()
            .flat_map(|f| &f.functions)
            .filter(|f| f.visibility == Visibility::Exported)
            .count()
    }

    /// Total modeled source lines of code.
    pub fn total_sloc(&self) -> u32 {
        self.files.iter().map(SourceFile::sloc).sum()
    }

    /// Exported symbol names defined in file `file_id`, sorted — the
    /// search space of Symbol Bisect for that file.
    pub fn exported_symbols_of_file(&self, file_id: usize) -> Vec<String> {
        let mut v: Vec<String> = self.files[file_id]
            .functions
            .iter()
            .filter(|f| f.visibility == Visibility::Exported)
            .map(|f| f.name.clone())
            .collect();
        v.sort();
        v
    }

    /// The exported functions that (transitively) call `symbol` — used
    /// to classify "indirect finds" in the injection study (§3.5: "the
    /// source function is not a visible symbol but Bisect was able to
    /// find the visible symbol which used the injected function").
    pub fn visible_callers(&self, symbol: &str) -> Vec<String> {
        let mut out = Vec::new();
        for file in &self.files {
            for f in &file.functions {
                if f.visibility == Visibility::Exported && self.calls_transitively(&f.name, symbol)
                {
                    out.push(f.name.clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Does `from` reach `to` through the call graph?
    pub fn calls_transitively(&self, from: &str, to: &str) -> bool {
        let mut stack = vec![from.to_string()];
        let mut seen = std::collections::HashSet::new();
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur.clone()) {
                continue;
            }
            if let Some(f) = self.function(&cur) {
                for callee in &f.calls {
                    if callee == to {
                        return true;
                    }
                    stack.push(callee.clone());
                }
            }
        }
        false
    }

    /// Compile one file under a compilation, producing its object file.
    pub fn compile_file(&self, file_id: usize, comp: &Compilation, pic: bool) -> ObjectFile {
        let file = &self.files[file_id];
        ObjectFile {
            file_id,
            file_name: file.name.clone(),
            compilation: comp.clone(),
            pic,
            build_tag: 0,
            symbols: file
                .functions
                .iter()
                .enumerate()
                .map(|(gi, f)| SymbolEntry {
                    name: f.name.clone(),
                    id: self.symbol_id(file_id, gi),
                    linkage: match f.visibility {
                        Visibility::Exported => Linkage::Strong,
                        Visibility::Static => Linkage::Local,
                    },
                })
                .collect(),
        }
    }
}

// Manual impls: `index`, `first_id`, `fingerprint` and the content
// digest are derived state, so the wire carries `{name, files}` only and deserialization
// rebuilds (and re-validates) through [`SimProgram::new`] — a
// deserialized program is structurally identical to the original,
// fingerprint and symbol ids included.
impl Serialize for SimProgram {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".to_string(), self.name.to_value()),
            ("files".to_string(), self.files.to_value()),
        ])
    }
}

impl Deserialize for SimProgram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let name = String::from_value(v.field("name")?)?;
        let files = Vec::<SourceFile>::from_value(v.field("files")?)?;
        Ok(SimProgram::new(name, files))
    }
}

/// How a test drives the program: the entry sequence `main()` performs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Driver {
    /// Driver (test) name; also salts the ABI-crash model the way real
    /// crash sites depend on the exercised code path.
    pub name: String,
    /// Exported symbols called by `main()`, in order, each round.
    pub entries: Vec<String>,
    /// How many rounds of the entry sequence to run (the time loop).
    pub rounds: usize,
    /// State vector length (the mesh/grid size).
    pub state_size: usize,
    /// Domain-decomposition factor: the number of MPI ranks/threads the
    /// run is decomposed over. Changing it changes the grid density and
    /// therefore the results (§3.6), but any fixed value is
    /// run-to-run deterministic.
    pub decomposition: usize,
}

impl Driver {
    /// A sequential driver.
    pub fn new(
        name: impl Into<String>,
        entries: Vec<String>,
        rounds: usize,
        state_size: usize,
    ) -> Self {
        Driver {
            name: name.into(),
            entries,
            rounds,
            state_size,
            decomposition: 1,
        }
    }

    /// Same driver decomposed over `ranks` domains.
    pub fn with_decomposition(mut self, ranks: usize) -> Self {
        self.decomposition = ranks.max(1);
        self
    }

    /// Build the initial state from the FLiT test input. This runs in
    /// the harness (outside the compiled program), so it uses plain
    /// arithmetic and is environment-independent.
    ///
    /// Domain decomposition adds ghost-layer padding per rank, changing
    /// the effective grid size — the mechanism by which "increasing the
    /// parallelism changed the result" in §3.6.
    pub fn init_state(&self, input: &[f64]) -> Vec<f64> {
        let pad = (self.decomposition - 1) * 2;
        let n = self.state_size + pad;
        (0..n)
            .map(|i| {
                let base = if input.is_empty() {
                    0.5
                } else {
                    input[i % input.len()].clamp(0.0, 1.0)
                };
                let ripple = ((i * 37 + 11) % 101) as f64 / 101.0;
                0.15 + 0.7 * (0.5 * base + 0.5 * ripple)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> SimProgram {
        SimProgram::new(
            "tiny",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![
                        Function::exported("alpha", Kernel::DotMix { stride: 3 })
                            .with_calls(vec!["helper".into(), "beta".into()]),
                        Function::local("helper", Kernel::Benign { flavor: 2 }),
                    ],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("beta", Kernel::NormScale).with_sloc(30)],
                ),
            ],
        )
    }

    #[test]
    fn lookup_and_counts() {
        let p = tiny_program();
        assert_eq!(p.lookup("alpha"), Some((0, 0)));
        assert_eq!(p.lookup("beta"), Some((1, 0)));
        assert_eq!(p.lookup("nope"), None);
        assert_eq!(p.total_functions(), 3);
        assert_eq!(p.exported_functions(), 2);
        assert!(p.total_sloc() > 50);
    }

    #[test]
    fn exported_symbols_of_file_excludes_statics() {
        let p = tiny_program();
        assert_eq!(p.exported_symbols_of_file(0), vec!["alpha".to_string()]);
    }

    #[test]
    fn visible_callers_resolves_transitively() {
        let p = tiny_program();
        assert_eq!(p.visible_callers("helper"), vec!["alpha".to_string()]);
        assert_eq!(p.visible_callers("beta"), vec!["alpha".to_string()]);
    }

    #[test]
    #[should_panic(expected = "duplicate symbol")]
    fn duplicate_symbols_rejected() {
        SimProgram::new(
            "dup",
            vec![SourceFile::new(
                "a.cpp",
                vec![
                    Function::exported("f", Kernel::DivScan),
                    Function::exported("f", Kernel::NormScale),
                ],
            )],
        );
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn undefined_callee_rejected() {
        SimProgram::new(
            "bad",
            vec![SourceFile::new(
                "a.cpp",
                vec![Function::exported("f", Kernel::DivScan).with_calls(vec!["ghost".into()])],
            )],
        );
    }

    #[test]
    #[should_panic(expected = "across files")]
    fn cross_file_static_call_rejected() {
        SimProgram::new(
            "bad2",
            vec![
                SourceFile::new(
                    "a.cpp",
                    vec![Function::local("s", Kernel::Benign { flavor: 0 })],
                ),
                SourceFile::new(
                    "b.cpp",
                    vec![Function::exported("f", Kernel::DivScan).with_calls(vec!["s".into()])],
                ),
            ],
        );
    }

    #[test]
    fn compile_file_maps_visibility_to_linkage() {
        let p = tiny_program();
        let comp = Compilation::baseline();
        let obj = p.compile_file(0, &comp, false);
        assert_eq!(obj.file_name, "a.cpp");
        assert_eq!(obj.linkage_of("alpha"), Some(Linkage::Strong));
        assert_eq!(obj.linkage_of("helper"), Some(Linkage::Local));
        assert!(!obj.pic);
        let pic_obj = p.compile_file(0, &comp, true);
        assert!(pic_obj.pic);
    }

    #[test]
    fn symbol_ids_are_dense_and_stamped_on_objects() {
        let p = tiny_program();
        let ids: Vec<(String, u32)> = (0..p.files.len())
            .flat_map(|fi| p.compile_file(fi, &Compilation::baseline(), false).symbols)
            .map(|s| (s.name, s.id))
            .collect();
        assert_eq!(
            ids,
            vec![
                ("alpha".to_string(), 0),
                ("helper".to_string(), 1),
                ("beta".to_string(), 2)
            ]
        );
        assert_eq!(p.symbol_id(1, 0), 2);
    }

    #[test]
    fn content_digest_survives_a_json_round_trip() {
        let spec = crate::generate::random_planted(7);
        for p in [tiny_program(), crate::generate::plant(&spec).program] {
            let back: SimProgram =
                serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
            assert_eq!(back.content_digest(), p.content_digest(), "{}", p.name);
            assert_eq!(back.fingerprint(), p.fingerprint());
        }
    }

    #[test]
    fn an_injected_copy_keeps_its_fingerprint_but_not_its_digest() {
        let clean = tiny_program();
        let mut injected = clean.clone();
        // The clone carries the computed digest; editing a body drops it.
        assert_eq!(injected.content_digest(), clean.content_digest());
        injected.function_mut("beta").unwrap().kernel = Kernel::DivScan;
        assert_eq!(injected.fingerprint(), clean.fingerprint());
        assert_ne!(injected.content_digest(), clean.content_digest());
    }

    #[test]
    fn driver_init_state_is_deterministic_and_bounded() {
        let d = Driver::new("t", vec!["alpha".into()], 2, 64);
        let s1 = d.init_state(&[0.25, 0.75]);
        let s2 = d.init_state(&[0.25, 0.75]);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 64);
        for &x in &s1 {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn decomposition_changes_grid_density() {
        let d1 = Driver::new("t", vec![], 1, 64);
        let d24 = d1.clone().with_decomposition(24);
        let s1 = d1.init_state(&[0.5]);
        let s24 = d24.init_state(&[0.5]);
        assert_eq!(s1.len(), 64);
        assert_eq!(s24.len(), 64 + 46);
        assert_ne!(s1.len(), s24.len());
    }
}
