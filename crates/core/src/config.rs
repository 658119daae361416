//! `ExecConfig`: one shared builder for the execution flags every driver
//! accepts.
//!
//! `zag`, `npb-run`, `vm-bench`, `tier-bench`, and the `zagd` service all
//! take the same knobs — optimization level, backend, team size, schedule,
//! safety mode, trace/metrics sinks, lint gating — and until this module
//! each binary re-implemented the parsing. [`ExecConfig`] centralises it:
//! a CLI feeds `argv` through [`ExecConfig::parse_flag`] and keeps its
//! binary-specific flags in its own `match`; a service fills the fields
//! directly from a request body. Either way, [`ExecConfig::make_runtime`]
//! turns the result into an isolated per-instance [`Runtime`], and
//! [`ExecConfig::apply_global`] applies it to the default global runtime
//! (the classic single-program CLI behaviour).
//!
//! The backend/opt fields are deliberately plain (`BackendSel`, `u8`): this
//! crate sits below `zomp-vm`, so the VM converts them to its own `Backend`
//! and `OptLevel` types at the boundary.

use std::sync::Arc;

use crate::icv::parse_omp_schedule;
use crate::runtime::{Runtime, RuntimeConfig};
use crate::safety::SafetyMode;
use crate::schedule::Schedule;

/// Which execution backend to use, as named on the command line. The VM
/// crate maps this onto its `Backend` enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSel {
    /// The tree-walking differential oracle.
    Ast,
    /// The register bytecode VM.
    Bytecode,
    /// Bytecode plus precompiled native bulk kernels (implies `--opt=3`).
    Native,
}

impl BackendSel {
    /// Parse a CLI spelling (`ast` | `bytecode` | `native`).
    pub fn parse(s: &str) -> Option<BackendSel> {
        match s {
            "ast" => Some(BackendSel::Ast),
            "bytecode" => Some(BackendSel::Bytecode),
            "native" => Some(BackendSel::Native),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendSel::Ast => "ast",
            BackendSel::Bytecode => "bytecode",
            BackendSel::Native => "native",
        }
    }
}

/// How `--check` findings gate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Default run mode: print findings as warnings, then execute.
    #[default]
    Warn,
    /// `--check`: report findings and exit without executing.
    Report,
    /// `--check=deny`: report findings; any finding refuses compilation
    /// with a non-zero exit.
    Deny,
}

/// The shared execution configuration. All fields are optional overrides;
/// unset fields keep the consumer's defaults.
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// `--backend ast|bytecode|native`.
    pub backend: Option<BackendSel>,
    /// `--opt 0|3`.
    pub opt: Option<u8>,
    /// `--threads N` (initial `nthreads-var`).
    pub threads: Option<usize>,
    /// `--schedule kind[,chunk]` (initial `run-sched-var`).
    pub schedule: Option<Schedule>,
    /// `--safety debug|production|paranoid`.
    pub safety: Option<SafetyMode>,
    /// `--trace FILE`: Chrome trace sink.
    pub trace_path: Option<String>,
    /// `--metrics FILE`: counters sink.
    pub metrics_path: Option<String>,
    /// `--check[=deny]`.
    pub check: CheckMode,
}

impl ExecConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// Try to consume `arg` (pulling any value from `rest`). Returns
    /// `Ok(true)` when the flag belonged to this builder, `Ok(false)` when
    /// the caller should handle it, and `Err` with a message on a malformed
    /// value. Both `--flag value` and `--flag=value` spellings are accepted.
    pub fn parse_flag(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        fn value(
            flag: &str,
            arg: &str,
            rest: &mut dyn Iterator<Item = String>,
        ) -> Result<String, String> {
            if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
                return Ok(v.to_string());
            }
            rest.next().ok_or_else(|| format!("{flag} needs a value"))
        }

        if arg == "--check" {
            self.check = CheckMode::Report;
            return Ok(true);
        }
        if arg == "--check=deny" {
            self.check = CheckMode::Deny;
            return Ok(true);
        }
        if arg == "--backend" || arg.starts_with("--backend=") {
            let v = value("--backend", arg, rest)?;
            self.backend =
                Some(BackendSel::parse(&v).ok_or_else(|| format!("unknown backend `{v}`"))?);
            return Ok(true);
        }
        if arg == "--opt" || arg.starts_with("--opt=") {
            let v = value("--opt", arg, rest)?;
            let n: u8 = v
                .parse()
                .ok()
                .filter(|n| matches!(n, 0 | 3))
                .ok_or_else(|| format!("bad optimization level `{v}` (expected 0 or 3)"))?;
            self.opt = Some(n);
            return Ok(true);
        }
        if arg == "--threads" || arg.starts_with("--threads=") {
            let v = value("--threads", arg, rest)?;
            let n: usize = v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad thread count `{v}`"))?;
            self.threads = Some(n);
            return Ok(true);
        }
        if arg == "--schedule" || arg.starts_with("--schedule=") {
            let v = value("--schedule", arg, rest)?;
            self.schedule = Some(parse_omp_schedule(&v));
            return Ok(true);
        }
        if arg == "--safety" || arg.starts_with("--safety=") {
            let v = value("--safety", arg, rest)?;
            self.safety = Some(match v.as_str() {
                "debug" => SafetyMode::Debug,
                "production" => SafetyMode::Production,
                "paranoid" => SafetyMode::Paranoid,
                _ => return Err(format!("unknown safety mode `{v}`")),
            });
            return Ok(true);
        }
        if arg == "--trace" || arg.starts_with("--trace=") {
            self.trace_path = Some(value("--trace", arg, rest)?);
            return Ok(true);
        }
        if arg == "--metrics" || arg.starts_with("--metrics=") {
            self.metrics_path = Some(value("--metrics", arg, rest)?);
            return Ok(true);
        }
        Ok(false)
    }

    /// The per-instance runtime configuration this config describes.
    /// Nothing is read from the environment: a service applying a request's
    /// `ExecConfig` must not inherit the daemon's `OMP_*`/`ZOMP_*` state.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            num_threads: self.threads,
            run_schedule: self.schedule,
            ..RuntimeConfig::default()
        }
    }

    /// Build an isolated [`Runtime`] for this config, with its trace and
    /// metrics sinks attached.
    pub fn make_runtime(&self) -> Arc<Runtime> {
        let rt = Runtime::with_config(&self.runtime_config());
        if let Some(p) = &self.trace_path {
            rt.set_trace_path(p);
        }
        if let Some(p) = &self.metrics_path {
            rt.set_metrics_path(p);
        }
        rt
    }

    /// Apply this config to the process: safety mode and, on the default
    /// global runtime, team size, schedule, and trace/metrics sinks. This is
    /// the classic single-program CLI behaviour (`zag`, `npb-run`, the bench
    /// drivers).
    pub fn apply_global(&self) {
        if let Some(m) = self.safety {
            crate::safety::set_safety_mode(m);
        }
        let rt = Runtime::global();
        if let Some(n) = self.threads {
            rt.icvs().set_num_threads(n);
        }
        if let Some(s) = self.schedule {
            rt.icvs().set_run_schedule(s);
        }
        if let Some(p) = &self.trace_path {
            rt.set_trace_path(p);
        }
        if let Some(p) = &self.metrics_path {
            rt.set_metrics_path(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKind;

    fn parse_all(args: &[&str]) -> Result<(ExecConfig, Vec<String>), String> {
        let mut cfg = ExecConfig::new();
        let mut leftover = Vec::new();
        let mut it = args.iter().map(|s| s.to_string());
        while let Some(a) = it.next() {
            if !cfg.parse_flag(&a, &mut it)? {
                leftover.push(a);
            }
        }
        Ok((cfg, leftover))
    }

    #[test]
    fn parses_both_spellings() {
        let (cfg, rest) = parse_all(&[
            "--opt",
            "3",
            "--backend=native",
            "--threads=4",
            "--schedule",
            "guided,2",
            "--trace",
            "t.json",
            "--metrics=m.json",
            "--safety",
            "production",
            "--check=deny",
            "prog.zag",
        ])
        .unwrap();
        assert_eq!(cfg.opt, Some(3));
        assert_eq!(cfg.backend, Some(BackendSel::Native));
        assert_eq!(cfg.threads, Some(4));
        let s = cfg.schedule.unwrap();
        assert_eq!(s.kind, ScheduleKind::Guided);
        assert_eq!(s.chunk, Some(2));
        assert_eq!(cfg.trace_path.as_deref(), Some("t.json"));
        assert_eq!(cfg.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(cfg.safety, Some(SafetyMode::Production));
        assert_eq!(cfg.check, CheckMode::Deny);
        assert_eq!(rest, vec!["prog.zag"]);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse_all(&["--opt", "9"]).is_err());
        for gone in ["1", "2"] {
            let e = parse_all(&["--opt", gone]).unwrap_err();
            assert!(e.contains("expected 0 or 3"), "{e}");
        }
        assert!(parse_all(&["--threads", "0"]).is_err());
        assert!(parse_all(&["--backend", "jit"]).is_err());
        assert!(parse_all(&["--safety", "fast"]).is_err());
        assert!(parse_all(&["--opt"]).is_err());
    }

    #[test]
    fn leaves_foreign_flags_alone() {
        let (cfg, rest) = parse_all(&["--dump-ir", "--opt=0", "x.zag"]).unwrap();
        assert_eq!(cfg.opt, Some(0));
        assert_eq!(rest, vec!["--dump-ir", "x.zag"]);
    }

    #[test]
    fn make_runtime_applies_icvs_without_env() {
        let cfg = ExecConfig {
            threads: Some(6),
            schedule: Some(Schedule::dynamic(Some(3))),
            ..ExecConfig::default()
        };
        let rt = cfg.make_runtime();
        assert_eq!(rt.icvs().num_threads(), 6);
        assert_eq!(rt.icvs().run_schedule().kind, ScheduleKind::Dynamic);
    }
}
