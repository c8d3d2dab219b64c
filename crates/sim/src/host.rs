//! How the host executes a simulated step — never what the step
//! computes: forces, cycles and counters are bitwise-identical under
//! every [`HostExec`] (`tests/host_matrix.rs`). Library code is handed
//! the value; only a binary's or test's edge resolves it, strictly,
//! through [`HostExec::from_vars`].

/// Host execution settings of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostExec {
    /// Worker threads of the functional and memory-timing phases.
    pub threads: usize,
}

impl Default for HostExec {
    fn default() -> Self {
        Self { threads: 1 }
    }
}

/// A set-but-malformed environment override: the variable, the
/// offending value and the grammar it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvOverrideError {
    pub var: &'static str,
    pub value: String,
    pub expected: &'static str,
}

impl std::fmt::Display for EnvOverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "environment override {}={:?} is malformed: expected {}",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvOverrideError {}

impl HostExec {
    /// Run `f` with `threads` participants (the caller and pool workers)
    /// in each parallel operation inside it.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads.max(1))
            .build();
        pool.expect("a width on the process-wide pool").install(f)
    }

    /// Resolve `MERRIMAC_HOST_THREADS` (a positive integer) as `lookup`
    /// reports it: unset means the default, set-but-malformed is an
    /// error. A binary passes a closure over its process environment, a
    /// test a table.
    pub fn from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, EnvOverrideError> {
        let threads = env_usize(lookup, "MERRIMAC_HOST_THREADS")?;
        Ok(threads.map_or_else(Self::default, |threads| Self { threads }))
    }
}

/// A positive-integer variable through the same strict rule (the
/// harnesses' `MERRIMAC_NODES` shares it).
pub fn env_usize(
    lookup: impl Fn(&str) -> Option<String>,
    var: &'static str,
) -> Result<Option<usize>, EnvOverrideError> {
    let Some(value) = lookup(var) else {
        return Ok(None);
    };
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(EnvOverrideError {
            var,
            value,
            expected: "a positive integer",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(vars: &[(&str, &str)]) -> Result<HostExec, EnvOverrideError> {
        HostExec::from_vars(|k| {
            vars.iter()
                .find(|(var, _)| *var == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_is_the_default_and_every_valid_value_lands() {
        let d = HostExec::default();
        assert_eq!(d.threads, 1);
        assert_eq!(resolve(&[]), Ok(d));
        for (var, value, want) in [
            ("MERRIMAC_HOST_THREADS", "1", d),
            ("MERRIMAC_HOST_THREADS", "8", HostExec { threads: 8 }),
        ] {
            assert_eq!(resolve(&[(var, value)]), Ok(want), "{var}={value}");
        }
        let all = resolve(&[
            ("MERRIMAC_HOST_THREADS", "2"),
            ("MERRIMAC_NODES", "two"), // not a host setting: not read here
        ]);
        assert_eq!(all, Ok(HostExec { threads: 2 }));
    }

    #[test]
    fn malformed_values_name_variable_value_and_grammar() {
        for (var, value, expected) in [
            ("MERRIMAC_HOST_THREADS", "0", "a positive integer"),
            ("MERRIMAC_HOST_THREADS", "-1", "a positive integer"),
            ("MERRIMAC_HOST_THREADS", "two", "a positive integer"),
            ("MERRIMAC_HOST_THREADS", "", "a positive integer"),
        ] {
            let err = resolve(&[(var, value)]).expect_err(value);
            assert_eq!(
                (err.var, err.value.as_str(), err.expected),
                (var, value, expected)
            );
            let text = err.to_string();
            assert!(text.contains(var) && text.contains(expected), "{text}");
            assert!(text.contains(&format!("{value:?}")), "{text}");
        }
    }

    #[test]
    fn env_usize_is_the_same_rule_for_any_variable() {
        let lookup = |k: &str| (k == "MERRIMAC_NODES").then(|| "16".to_string());
        assert_eq!(env_usize(lookup, "MERRIMAC_NODES"), Ok(Some(16)));
        assert_eq!(env_usize(lookup, "MERRIMAC_OTHER"), Ok(None));
        let err = env_usize(|_| Some("two".into()), "MERRIMAC_NODES").unwrap_err();
        assert_eq!(
            err.to_string(),
            "environment override MERRIMAC_NODES=\"two\" is malformed: expected a positive integer"
        );
    }
}
