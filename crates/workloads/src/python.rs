//! The Python microservice script generator (the paper's non-Wasm
//! baseline, §IV-D).

/// Shape of the generated script.
#[derive(Debug, Clone)]
pub struct PythonScriptConfig {
    /// Startup-work loop iterations (logically equivalent to the Wasm
    /// microservice's warm-up loop).
    pub(crate) loop_iterations: i64,
    /// Modules the service imports at startup.
    pub(crate) imports: &'static [&'static str],
    pub(crate) ready_message: &'static str,
    /// Retain every loop result in an in-heap cache (memory-heavy shape).
    pub(crate) retain_cache: bool,
}

impl Default for PythonScriptConfig {
    fn default() -> Self {
        PythonScriptConfig {
            loop_iterations: 2_000,
            imports: &["sys", "os", "time"],
            ready_message: "microservice ready",
            retain_cache: false,
        }
    }
}

impl PythonScriptConfig {
    /// A memory-hungry service: builds a large in-heap cache at startup
    /// (each retained element is a real tracked allocation, so the
    /// interpreter-heap charge grows accordingly).
    pub fn memory_heavy() -> Self {
        PythonScriptConfig {
            loop_iterations: 40_000,
            imports: &["sys", "os", "time"],
            ready_message: "cache service ready",
            retain_cache: true,
        }
    }

    pub fn compute_heavy() -> Self {
        PythonScriptConfig {
            loop_iterations: 20_000,
            imports: &["sys", "os", "time", "math", "json"],
            ready_message: "compute service ready",
            retain_cache: false,
        }
    }
}

/// Generate the service script source.
pub fn python_microservice_script(cfg: &PythonScriptConfig) -> String {
    let mut s = String::new();
    for m in cfg.imports {
        s.push_str("import ");
        s.push_str(m);
        s.push('\n');
    }
    s.push('\n');
    s.push_str("def mix(acc, i):\n");
    s.push_str("    return (acc * 31 + i) % 1000003\n");
    s.push('\n');
    s.push_str("def main():\n");
    s.push_str("    acc = 0\n");
    if cfg.retain_cache {
        s.push_str("    cache = []\n");
    }
    s.push_str(&format!("    for i in range({}):\n", cfg.loop_iterations));
    s.push_str("        acc = mix(acc, i)\n");
    if cfg.retain_cache {
        s.push_str("        cache.append(acc)\n");
    }
    s.push_str(&format!("    print(\"{}\")\n", cfg.ready_message));
    s.push_str("    return 0\n");
    s.push('\n');
    s.push_str("main()\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyrt::{parse, Interp, PyError};

    #[test]
    fn script_parses_and_runs() {
        let src = python_microservice_script(&PythonScriptConfig::default());
        let program = parse(&src).unwrap();
        let mut interp = Interp::new(vec!["service.py".into()], vec![]);
        match interp.run(&program) {
            Ok(0) => {}
            Err(PyError::Exit(0)) => {}
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(interp.stdout, b"microservice ready\n");
        assert_eq!(interp.imported_modules(), ["sys", "os", "time"]);
        assert!(interp.stats().ops > 10_000);
    }

    #[test]
    fn heavy_script_does_more_work() {
        let light = python_microservice_script(&PythonScriptConfig::default());
        let heavy = python_microservice_script(&PythonScriptConfig::compute_heavy());
        let run_ops = |src: &str| {
            let program = parse(src).unwrap();
            let mut i = Interp::new(vec![], vec![]);
            i.run(&program).unwrap();
            i.stats().ops
        };
        assert!(run_ops(&heavy) > 5 * run_ops(&light));
    }
}
