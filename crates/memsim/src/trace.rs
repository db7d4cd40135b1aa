//! Trace-driven simulation: replay recorded memory-access traces through
//! the system model, complementing the synthetic generators.
//!
//! The text format is one access per line — `R <hex-addr> [gap]` or
//! `W <hex-addr> [gap]` where `gap` is the number of non-memory
//! instructions since the previous access (default 2). `#` starts a
//! comment. This is the least common denominator of the formats tools
//! like gem5, DynamoRIO, or valgrind's lackey can be massaged into.

use std::fmt;

use crate::{MemOp, RunStats, System};

/// Error parsing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// A parsed, replayable memory trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<MemOp>,
}

impl Trace {
    /// Parses the text format described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    ///
    /// # Examples
    ///
    /// ```
    /// use muse_memsim::Trace;
    ///
    /// # fn main() -> Result<(), muse_memsim::ParseTraceError> {
    /// let trace = Trace::parse("# demo\nR 0x1000\nW 0x1040 5\n")?;
    /// assert_eq!(trace.len(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(text: &str) -> Result<Self, ParseTraceError> {
        let mut ops = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut parts = content.split_whitespace();
            let op = parts.next().expect("nonempty line has a token");
            let is_write = match op {
                "R" | "r" => false,
                "W" | "w" => true,
                other => {
                    return Err(ParseTraceError {
                        line,
                        message: format!("expected R or W, got {other:?}"),
                    })
                }
            };
            let addr_str = parts.next().ok_or_else(|| ParseTraceError {
                line,
                message: "missing address".into(),
            })?;
            let digits = addr_str
                .strip_prefix("0x")
                .or_else(|| addr_str.strip_prefix("0X"))
                .unwrap_or(addr_str);
            let addr = u64::from_str_radix(digits, 16).map_err(|e| ParseTraceError {
                line,
                message: format!("bad address {addr_str:?}: {e}"),
            })?;
            let gap_insts = match parts.next() {
                None => 2,
                Some(g) => g.parse().map_err(|e| ParseTraceError {
                    line,
                    message: format!("bad gap {g:?}: {e}"),
                })?,
            };
            if let Some(extra) = parts.next() {
                return Err(ParseTraceError {
                    line,
                    message: format!("unexpected trailing token {extra:?}"),
                });
            }
            ops.push(MemOp {
                addr,
                is_write,
                gap_insts,
            });
        }
        Ok(Self { ops })
    }

    /// Builds a trace directly from operations.
    pub fn from_ops(ops: Vec<MemOp>) -> Self {
        Self { ops }
    }

    /// Number of memory operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations.
    pub fn ops(&self) -> &[MemOp] {
        &self.ops
    }

    /// Serializes back to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            let kind = if op.is_write { 'W' } else { 'R' };
            out.push_str(&format!("{kind} {:#x} {}\n", op.addr, op.gap_insts));
        }
        out
    }

    /// Replays the whole trace through a system, returning the final stats.
    /// Each op goes through [`System::step`], which runs the two stages of
    /// [`System::run`] back to back on the calling thread.
    pub fn replay(&self, system: &mut System) -> RunStats {
        for &op in &self.ops {
            system.step(op);
        }
        system.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;

    #[test]
    fn parse_roundtrip() {
        let text = "R 0x1000 2\nW 0x1040 5\nR 0x2000 0\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.to_text(), text);
        assert_eq!(Trace::parse(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn comments_defaults_and_case() {
        let trace = Trace::parse("# header\n\nr 0xABC # inline comment\nw 0xDEF\n").unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(
            trace.ops()[0],
            MemOp {
                addr: 0xABC,
                is_write: false,
                gap_insts: 2
            }
        );
        assert!(trace.ops()[1].is_write);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = Trace::parse("R 0x10\nX 0x20\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("expected R or W"));
        assert_eq!(Trace::parse("R\n").unwrap_err().line, 1);
        assert!(Trace::parse("R zz")
            .unwrap_err()
            .message
            .contains("bad address"));
        assert!(Trace::parse("R 0x1 2 3")
            .unwrap_err()
            .message
            .contains("trailing"));
        assert!(Trace::parse("W 0x1 x")
            .unwrap_err()
            .message
            .contains("bad gap"));
    }

    #[test]
    fn replay_matches_manual_stepping() {
        let text = "R 0x1000\nR 0x1000\nW 0x1000\nR 0x80000\n";
        let trace = Trace::parse(text).unwrap();
        let mut a = System::new(SystemConfig::default());
        let stats_a = trace.replay(&mut a);
        let mut b = System::new(SystemConfig::default());
        for &op in trace.ops() {
            b.step(op);
        }
        assert_eq!(stats_a.cycles, b.stats().cycles);
        assert_eq!(stats_a.instructions, b.stats().instructions);
        assert!(stats_a.cycles > 0);
    }

    #[test]
    fn empty_trace() {
        let trace = Trace::parse("# nothing\n").unwrap();
        assert!(trace.is_empty());
        let mut system = System::new(SystemConfig::default());
        let stats = trace.replay(&mut system);
        assert_eq!(stats.instructions, 0);
    }
}
