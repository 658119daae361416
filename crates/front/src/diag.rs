//! The unified diagnostics type of the front-end.
//!
//! Every error and warning the pipeline can produce — tokenizer, parser,
//! preprocessor, the data-sharing analysis of
//! [`crate::analyze`](mod@crate::analyze), and the VM's program loader —
//! is one [`Diag`]: a severity, a stable rule code,
//! a byte offset into the source it was produced against, an optional
//! pragma label (`unit:line`, the same label `preprocess_named` threads
//! into `fork_call` for the observability layer), the message, and an
//! optional note. Consumers render all of them through [`Diag::render`],
//! so `zag` has exactly one diagnostic formatter.

/// How bad is it: `Error` refuses the program, `Warning` reports and
/// continues (unless the user asked for `--check=deny`), `Remark` is
/// purely informational (optimization remarks, `zag --remarks`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
    Remark,
}

/// One structured diagnostic.
#[derive(Debug, Clone)]
pub struct Diag {
    pub severity: Severity,
    /// Stable machine-readable id: `"lex"`, `"parse"`, `"preprocess"` and
    /// the VM's `"compile"` for pipeline errors; the rule name
    /// (`"race-shared-write"`, ...) for analysis findings.
    pub code: &'static str,
    /// Byte offset of the primary location in the source the diagnostic
    /// was produced against.
    pub offset: usize,
    /// The owning pragma's `unit:line` label, when the diagnostic belongs
    /// to a directive (analysis findings always carry one).
    pub label: Option<String>,
    pub message: String,
    /// An optional secondary remark (how to fix, what the rule protects).
    pub note: Option<String>,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.severity {
            Severity::Error => write!(f, "error at byte {}: {}", self.offset, self.message),
            Severity::Warning => {
                write!(
                    f,
                    "warning[{}] at byte {}: {}",
                    self.code, self.offset, self.message
                )
            }
            Severity::Remark => {
                write!(
                    f,
                    "remark[{}] at byte {}: {}",
                    self.code, self.offset, self.message
                )
            }
        }
    }
}

impl std::error::Error for Diag {}

impl Diag {
    /// Plain error with the generic code.
    pub fn new(offset: usize, message: impl Into<String>) -> Diag {
        Diag::error("error", offset, message)
    }

    /// An error diagnostic carrying a stable code.
    pub fn error(code: &'static str, offset: usize, message: impl Into<String>) -> Diag {
        Diag {
            severity: Severity::Error,
            code,
            offset,
            label: None,
            message: message.into(),
            note: None,
        }
    }

    /// A warning diagnostic carrying a stable code.
    pub fn warning(code: &'static str, offset: usize, message: impl Into<String>) -> Diag {
        Diag {
            severity: Severity::Warning,
            code,
            offset,
            label: None,
            message: message.into(),
            note: None,
        }
    }

    /// An optimization remark carrying a stable code (`zag --remarks`).
    pub fn remark(code: &'static str, offset: usize, message: impl Into<String>) -> Diag {
        Diag {
            severity: Severity::Remark,
            code,
            offset,
            label: None,
            message: message.into(),
            note: None,
        }
    }

    /// A tokenizer error.
    pub fn lex(offset: usize, message: impl Into<String>) -> Diag {
        Diag::error("lex", offset, message)
    }

    /// A parser error.
    pub fn parse(offset: usize, message: impl Into<String>) -> Diag {
        Diag::error("parse", offset, message)
    }

    /// A preprocessor error.
    pub fn preprocess(offset: usize, message: impl Into<String>) -> Diag {
        Diag::error("preprocess", offset, message)
    }

    /// Attach the owning pragma's `unit:line` label.
    pub fn with_label(mut self, label: impl Into<String>) -> Diag {
        self.label = Some(label.into());
        self
    }

    /// Attach a secondary note.
    pub fn with_note(mut self, note: impl Into<String>) -> Diag {
        self.note = Some(note.into());
        self
    }

    /// The 1-based `(line, column)` of [`Diag::offset`] against the source
    /// the diagnostic was produced for. This is the structured form of the
    /// location [`Diag::render`] prints — consumers that ship diagnostics
    /// as data (the `zagd` service returns them as JSON values) use this
    /// rather than re-deriving it from the rendered string.
    pub fn line_col(&self, source: &str) -> (usize, usize) {
        let upto = &source[..self.offset.min(source.len())];
        let line = upto.matches('\n').count() + 1;
        let col = self.offset.min(source.len()) - upto.rfind('\n').map(|p| p + 1).unwrap_or(0) + 1;
        (line, col)
    }

    /// Render with line/column context against the source the diagnostic
    /// was produced for. Errors keep the historical `line:col: message`
    /// shape; warnings add their rule code and pragma label, and notes
    /// continue on an indented second line.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = self.line_col(source);
        let mut out = match self.severity {
            Severity::Error => format!("{}:{}: {}", line, col, self.message),
            Severity::Warning => {
                format!("{}:{}: warning[{}]: {}", line, col, self.code, self.message)
            }
            Severity::Remark => {
                format!("{}:{}: remark[{}]: {}", line, col, self.code, self.message)
            }
        };
        if let Some(label) = &self.label {
            out.push_str(&format!(" (pragma at {label})"));
        }
        if let Some(note) = &self.note {
            out.push_str(&format!("\n  note: {note}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_render_keeps_line_col_message_shape() {
        let d = Diag::parse(10, "expected ';'");
        let src = "fn f() {\n x\n}";
        // Offset 10 is on line 2.
        assert_eq!(d.render(src), "2:2: expected ';'");
    }

    #[test]
    fn warning_render_includes_code_label_and_note() {
        let d = Diag::warning("race-shared-write", 0, "write to shared `s`")
            .with_label("demo.zag:3")
            .with_note("use reduction(+: s)");
        let r = d.render("x");
        assert!(r.contains("warning[race-shared-write]"), "{r}");
        assert!(r.contains("(pragma at demo.zag:3)"), "{r}");
        assert!(r.contains("note: use reduction(+: s)"), "{r}");
    }

    #[test]
    fn display_distinguishes_severity() {
        assert!(Diag::new(3, "boom")
            .to_string()
            .starts_with("error at byte 3"));
        assert!(Diag::warning("x", 3, "boom")
            .to_string()
            .starts_with("warning[x] at byte 3"));
    }

    #[test]
    fn offset_past_end_clamps() {
        let d = Diag::new(999, "late");
        assert_eq!(d.render("ab"), "1:3: late");
    }

    #[test]
    fn line_col_matches_render() {
        let src = "fn f() {\n x\n}";
        let d = Diag::parse(10, "expected ';'");
        assert_eq!(d.line_col(src), (2, 2));
        assert_eq!(Diag::new(0, "start").line_col(src), (1, 1));
    }
}
