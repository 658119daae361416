//! Workload `vm_generic`: loops the fixed bulk kernels do not cover.
//! `vm::templates` (`stencil`) and `vm::interp` (`dyn`) do the work and
//! `vm::kernels` none, so a change to the generic tiers shows here and
//! must not move `npb_native`.

use std::sync::Arc;

use zomp_vm::value::{ArrF, ArrI, Value};
use zomp_vm::Vm;

use crate::programs::{DYN, STENCIL};
use crate::stats::{Digest, Rng};
use crate::workload::{arr_f, arr_i, ast_vm, bits, native_vm, Kind, Sizes, Tier, VmWorkload};

pub fn setup(seed: u64, sizes: &Sizes) -> VmWorkload {
    let mut digest = Digest::default();
    let kinds: Vec<Box<dyn Kind>> = vec![
        Box::new(Stencil::new(seed, sizes, &mut digest)),
        Box::new(Dyn::new(seed, sizes, &mut digest)),
    ];
    VmWorkload::new(kinds, digest.value())
}

struct Stencil {
    vm: Vm,
    u: Arc<ArrF>,
    v: Arc<ArrF>,
    x: Arc<ArrI>,
    n: i64,
    reps: i64,
    /// The tree-walker's sum for one repetition and its `v`.
    expected_acc: i64,
    expected_v: Vec<u64>,
}

impl Stencil {
    fn new(seed: u64, sizes: &Sizes, digest: &mut Digest) -> Stencil {
        let mut rng = Rng::new(seed, "stencil");
        let n = sizes.stencil_n;
        let u: Vec<f64> = (0..n).map(|_| rng.unit_f64()).collect();
        let x: Vec<i64> = (0..n).map(|_| rng.below(31) as i64 - 15).collect();
        digest.u64s(bits(&u));
        digest.u64s(x.iter().map(|&v| v as u64));
        Stencil {
            vm: native_vm(STENCIL, "stencil.zag"),
            u: arr_f(&u),
            v: Arc::new(ArrF::new(n)),
            x: arr_i(&x),
            n: n as i64,
            reps: sizes.stencil_reps,
            expected_acc: 0,
            expected_v: Vec::new(),
        }
    }

    fn call_args(&self, v: &Arc<ArrF>, reps: i64, threads: usize) -> Vec<Value> {
        vec![
            Value::ArrF(Arc::clone(&self.u)),
            Value::ArrF(Arc::clone(v)),
            Value::ArrI(Arc::clone(&self.x)),
            Value::Int(self.n),
            Value::Int(reps),
            Value::Int(threads as i64),
        ]
    }
}

impl Kind for Stencil {
    fn name(&self) -> &'static str {
        "stencil"
    }
    fn elems(&self) -> u64 {
        (self.n * self.reps) as u64
    }
    fn tier(&self) -> Tier {
        Tier::Templates
    }
    fn source(&self) -> (&'static str, &str) {
        ("stencil.zag", STENCIL)
    }
    fn vm(&self) -> &Vm {
        &self.vm
    }
    fn entry(&self) -> &'static str {
        "stencil"
    }
    fn args(&self, threads: usize) -> Vec<Value> {
        for i in [1, self.n / 2, self.n - 2] {
            self.v.set(i, f64::NAN).expect("canary index within v");
        }
        self.call_args(&self.v, self.reps, threads)
    }
    fn compute_reference(&mut self) {
        // The tree-walker is ~120x slower than the template tier, so it
        // runs one repetition: every repetition writes the same `v` and
        // adds the same (overflow-free) integer sum, so `reps` repetitions
        // must return exactly `reps` times this.
        let v = Arc::new(ArrF::new(self.n as usize));
        let ret = ast_vm(STENCIL, "stencil.zag")
            .call_function("stencil", self.call_args(&v, 1, 2))
            .expect("tree-walker runs stencil");
        self.expected_acc = ret.as_int().expect("stencil returns an int");
        self.expected_v = bits(&v.to_vec());
    }
    fn check(&self, _threads: usize, ret: &Value) -> Result<(), String> {
        let acc = ret.as_int().map_err(|e| e.to_string())?;
        if acc != self.expected_acc * self.reps {
            return Err(format!(
                "sum {acc} is not {} x the tree-walker's {}",
                self.reps, self.expected_acc
            ));
        }
        if bits(&self.v.to_vec()) != self.expected_v {
            return Err("v differs from the tree-walker's".into());
        }
        Ok(())
    }
}

struct Dyn {
    vm: Vm,
    x: Arc<ArrI>,
    n: i64,
    hits: Arc<ArrI>,
    /// `(result bits, hits[0])` per team size.
    expected: [(u64, i64); 2],
}

impl Dyn {
    fn new(seed: u64, sizes: &Sizes, digest: &mut Digest) -> Dyn {
        let mut rng = Rng::new(seed, "dyn");
        let x: Vec<i64> = (0..sizes.dyn_n).map(|_| rng.below(1000) as i64).collect();
        digest.u64s(x.iter().map(|&v| v as u64));
        Dyn {
            vm: native_vm(DYN, "dyn.zag"),
            x: arr_i(&x),
            n: sizes.dyn_n as i64,
            hits: Arc::new(ArrI::new(1)),
            expected: [(0, 0); 2],
        }
    }

    fn call_args(&self, hits: &Arc<ArrI>, threads: usize) -> Vec<Value> {
        vec![
            Value::ArrI(Arc::clone(&self.x)),
            Value::Int(self.n),
            Value::ArrI(Arc::clone(hits)),
            Value::Int(threads as i64),
        ]
    }
}

impl Kind for Dyn {
    fn name(&self) -> &'static str {
        "dyn"
    }
    fn elems(&self) -> u64 {
        self.n as u64
    }
    fn tier(&self) -> Tier {
        Tier::Interpreter
    }
    fn source(&self) -> (&'static str, &str) {
        ("dyn.zag", DYN)
    }
    fn vm(&self) -> &Vm {
        &self.vm
    }
    fn entry(&self) -> &'static str {
        "dyn"
    }
    fn args(&self, threads: usize) -> Vec<Value> {
        self.hits.set(0, 0).expect("index within hits");
        self.call_args(&self.hits, threads)
    }
    fn compute_reference(&mut self) {
        let oracle = ast_vm(DYN, "dyn.zag");
        for threads in [1, 2] {
            let hits = Arc::new(ArrI::new(1));
            let ret = oracle
                .call_function("dyn", self.call_args(&hits, threads))
                .expect("tree-walker runs dyn");
            let total = ret.as_float().expect("dyn returns a float");
            self.expected[threads - 1] = (total.to_bits(), hits.get(0).expect("hits[0]"));
        }
    }
    fn check(&self, threads: usize, ret: &Value) -> Result<(), String> {
        let total = ret.as_float().map_err(|e| e.to_string())?;
        let got = (
            total.to_bits(),
            self.hits.get(0).map_err(|e| e.to_string())?,
        );
        if got == self.expected[threads - 1] {
            Ok(())
        } else {
            Err(format!(
                "total {total} / hits {} differ from the tree-walker's",
                got.1
            ))
        }
    }
}
