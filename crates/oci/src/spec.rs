//! OCI runtime specification types (the subset the paper's stack uses),
//! with a hand-written `config.json` writer on [`crate::json`]'s writers —
//! no intermediate tree. Nothing decodes a spec: a bundle's `config.json`
//! is simulated by the writer's output length.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{write_bool, write_seq, write_string};

/// The annotation crun uses to dispatch a container to a Wasm handler
/// (the `module.wasm.image/variant=compat` convention).
pub const WASM_VARIANT_ANNOTATION: &str = "module.wasm.image/variant";

/// Annotation carrying the guest watchdog's epoch budget in nanoseconds.
/// The kubelet writes it (derived from the pod's liveness-probe window) and
/// every guest handler honors it; absent means the guest runs unwatched.
pub const WATCHDOG_BUDGET_ANNOTATION: &str = "container.sim/watchdog-epoch-budget-ns";

/// Adversarial annotation: instantiate the module this many extra times
/// after `_start` (the fork-bomb workload). Absent or unparsable means no
/// churn.
pub const INSTANTIATE_CHURN_ANNOTATION: &str = "container.sim/instantiate-churn";

/// Adversarial annotation: stream this many cold-read passes over the
/// image's stream file after `_start` (the page-cache thrasher). Absent or
/// unparsable means no churn.
pub const IO_CHURN_ANNOTATION: &str = "container.sim/io-churn-passes";

/// Annotation declaring how much of the function's per-request work is
/// *optional* (parts-per-million): work the service layer may tell the
/// guest to skip in brownout/degraded mode (smaller response, no
/// enrichment). Absent or unparsable means the function has no degraded
/// mode.
pub const BROWNOUT_ANNOTATION: &str = "container.sim/brownout-optional-work-ppm";

/// `process` object: what to execute.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProcessSpec {
    pub args: Vec<String>,
    /// `KEY=VALUE` strings, as in the OCI spec.
    pub env: Vec<String>,
    pub(crate) cwd: &'static str,
    pub(crate) terminal: bool,
}

impl ProcessSpec {
    /// Parse `env` entries into pairs (ill-formed entries are skipped).
    pub fn env_pairs(&self) -> Vec<(String, String)> {
        self.env
            .iter()
            .filter_map(|e| e.split_once('=').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect()
    }
}

/// `root` object.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct RootSpec {
    pub(crate) path: &'static str,
    pub(crate) readonly: bool,
}

/// One `mounts` entry.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MountSpec {
    pub(crate) destination: &'static str,
    pub(crate) source: &'static str,
    pub(crate) fstype: &'static str,
    pub(crate) options: &'static [&'static str],
}

/// `linux.resources.memory`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryResources {
    pub limit: Option<u64>,
}

/// `linux` object subset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinuxSpec {
    /// Namespace type names ("pid", "mount", "network", ...).
    pub namespaces: &'static [&'static str],
    pub cgroups_path: String,
    pub memory: MemoryResources,
}

/// A `config.json` runtime specification. What is the same in every
/// container's spec is static: building one allocates only what names it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuntimeSpec {
    pub(crate) oci_version: &'static str,
    pub process: ProcessSpec,
    pub(crate) root: RootSpec,
    pub(crate) hostname: String,
    pub(crate) mounts: &'static [MountSpec],
    pub annotations: BTreeMap<String, String>,
    pub linux: LinuxSpec,
}

impl RuntimeSpec {
    /// A sensible default spec for a container executing `args`.
    pub fn for_command(id: &str, args: Vec<String>) -> RuntimeSpec {
        static PROC: [MountSpec; 1] =
            [MountSpec { destination: "/proc", source: "proc", fstype: "proc", options: &[] }];
        RuntimeSpec {
            oci_version: "1.0.2",
            process: ProcessSpec { args, env: Vec::new(), cwd: "/", terminal: false },
            root: RootSpec { path: "rootfs", readonly: true },
            hostname: id.to_string(),
            mounts: &PROC,
            annotations: BTreeMap::new(),
            linux: LinuxSpec {
                namespaces: &["pid", "mount", "network", "uts", "ipc", "cgroup"],
                cgroups_path: ["/kubepods/", id].concat(),
                memory: MemoryResources::default(),
            },
        }
    }

    /// Does this spec request the Wasm handler? True when the variant
    /// annotation is set or the entrypoint names a `.wasm` file.
    pub fn wants_wasm(&self) -> bool {
        self.annotations.get(WASM_VARIANT_ANNOTATION).map(String::as_str) == Some("compat")
            || self.process.args.first().map(|a| a.ends_with(".wasm")).unwrap_or(false)
    }

    /// The guest watchdog's epoch budget in nanoseconds, if the
    /// [`WATCHDOG_BUDGET_ANNOTATION`] is set (and parses).
    pub fn watchdog_budget_ns(&self) -> Option<u64> {
        self.annotations.get(WATCHDOG_BUDGET_ANNOTATION)?.parse().ok()
    }

    /// Fork-bomb churn count, if [`INSTANTIATE_CHURN_ANNOTATION`] is set.
    pub fn instantiate_churn(&self) -> Option<u32> {
        self.annotations.get(INSTANTIATE_CHURN_ANNOTATION)?.parse().ok()
    }

    /// Thrasher pass count, if [`IO_CHURN_ANNOTATION`] is set.
    pub fn io_churn_passes(&self) -> Option<u32> {
        self.annotations.get(IO_CHURN_ANNOTATION)?.parse().ok()
    }

    /// Serialize to `config.json` bytes: compact, keys in sorted order at
    /// every level — byte for byte what serializing the equivalent
    /// [`json::Value`](crate::json::Value) tree gives. The simulation charges
    /// a bundle by this document's size, so the bytes are part of the model.
    pub fn to_json(&self) -> String {
        // Roomy for the usual ~470 bytes; longer documents grow the buffer.
        let mut out = String::with_capacity(1024);
        out.push_str("{\"annotations\":");
        write_seq(&mut out, ['{', '}'], &self.annotations, |out, (k, v)| {
            write_string(out, k);
            out.push(':');
            write_string(out, v);
        });
        out.push_str(",\"hostname\":");
        write_string(&mut out, &self.hostname);
        out.push_str(",\"linux\":{\"cgroupsPath\":");
        write_string(&mut out, &self.linux.cgroups_path);
        out.push_str(",\"namespaces\":");
        write_seq(&mut out, ['[', ']'], self.linux.namespaces, |out, ns| {
            out.push_str("{\"type\":");
            write_string(out, ns);
            out.push('}');
        });
        if let Some(limit) = self.linux.memory.limit {
            // Exact integer text: the tree's `f64` writer would round
            // anything from 2^53 up.
            let _ = write!(out, ",\"resources\":{{\"memory\":{{\"limit\":{limit}}}}}");
        }
        out.push_str("},\"mounts\":");
        write_seq(&mut out, ['[', ']'], self.mounts, |out, m| {
            out.push_str("{\"destination\":");
            write_string(out, m.destination);
            out.push_str(",\"options\":");
            write_strings(out, m.options);
            out.push_str(",\"source\":");
            write_string(out, m.source);
            out.push_str(",\"type\":");
            write_string(out, m.fstype);
            out.push('}');
        });
        out.push_str(",\"ociVersion\":");
        write_string(&mut out, self.oci_version);
        out.push_str(",\"process\":{\"args\":");
        write_strings(&mut out, &self.process.args);
        out.push_str(",\"cwd\":");
        write_string(&mut out, self.process.cwd);
        out.push_str(",\"env\":");
        write_strings(&mut out, &self.process.env);
        out.push_str(",\"terminal\":");
        write_bool(&mut out, self.process.terminal);
        out.push_str("},\"root\":{\"path\":");
        write_string(&mut out, self.root.path);
        out.push_str(",\"readonly\":");
        write_bool(&mut out, self.root.readonly);
        out.push_str("}}");
        out
    }
}

/// A copy, for [`Bundle::create`](crate::Bundle::create) callers that keep
/// the spec they hand it.
impl From<&RuntimeSpec> for RuntimeSpec {
    fn from(spec: &RuntimeSpec) -> RuntimeSpec {
        spec.clone()
    }
}

fn write_strings(out: &mut String, items: &[impl AsRef<str>]) {
    write_seq(out, ['[', ']'], items, |out, s| write_string(out, s.as_ref()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_pairs_parsed() {
        let p = ProcessSpec {
            env: vec!["A=1".into(), "B=x=y".into(), "BROKEN".into()],
            ..Default::default()
        };
        assert_eq!(
            p.env_pairs(),
            vec![("A".to_string(), "1".to_string()), ("B".to_string(), "x=y".to_string())]
        );
    }

    #[test]
    fn wasm_dispatch_detection() {
        let mut spec = RuntimeSpec::for_command("c", vec!["/usr/bin/python3".into()]);
        assert!(!spec.wants_wasm());
        spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
        assert!(spec.wants_wasm());

        let spec2 = RuntimeSpec::for_command("c", vec!["/app/svc.wasm".into()]);
        assert!(spec2.wants_wasm(), "entrypoint extension triggers dispatch");
    }

    /// Every `u64`, not only those an `f64` holds exactly.
    #[test]
    fn memory_limit_survives() {
        let mut spec = RuntimeSpec::for_command("c", vec!["x".into()]);
        for limit in [0, 128 << 20, (1 << 53) + 1, i64::MAX as u64 + 1, u64::MAX] {
            spec.linux.memory.limit = Some(limit);
            let json = spec.to_json();
            assert!(json.contains(&format!("\"limit\":{limit}}}")), "{json}");
        }
    }

    mod codec {
        //! The `config.json` writer: exact bytes out.
        //!
        //! A bundle's `config.json` is simulated by its size (`config_kib ×
        //! parse_ns_per_kib`, page-cache pages), so `RuntimeSpec::to_json` may not
        //! move by a byte: the goldens below were recorded before the direct writer
        //! replaced the DOM-based one.

        use crate::spec::{RuntimeSpec, WASM_VARIANT_ANNOTATION, WATCHDOG_BUDGET_ANNOTATION};

        /// The pod's pause container, as `Containerd::run_pod_sandbox` builds it.
        fn pause_spec() -> RuntimeSpec {
            RuntimeSpec::for_command("pod-7-pause", vec!["/pause".to_string()])
        }

        /// A workload container, as `Containerd::create_container_with` builds it
        /// from the microservice image: image env and annotations, `cgroupsPath`
        /// under the pod.
        fn workload_spec() -> RuntimeSpec {
            let mut spec =
                RuntimeSpec::for_command("pod-7-app", vec!["/app/main.wasm".to_string()]);
            spec.process.env = vec!["SERVICE_NAME=microservice".to_string()];
            spec.linux.cgroups_path = "/kubepods/pod-7/pod-7-app".to_string();
            spec.annotations.insert(WASM_VARIANT_ANNOTATION.to_string(), "compat".to_string());
            spec
        }

        /// A memory limit, the kubelet's watchdog annotation, and strings needing
        /// every escape class: `"`, `\`, `\n`, a control byte, a non-ASCII char.
        fn escapy_spec() -> RuntimeSpec {
            let mut spec = workload_spec();
            spec.linux.memory.limit = Some(64 << 20);
            spec.annotations
                .insert(WATCHDOG_BUDGET_ANNOTATION.to_string(), "30000000000".to_string());
            spec.annotations.insert("note/\"quoted\"".to_string(), "tab\there\r\n".to_string());
            spec.process.args.push("--greeting=\"héllo\\世界\"\n".to_string());
            spec.process.env.push("BELL=\u{7}\u{1f}".to_string());
            spec.hostname = "nœud-😀".to_string();
            spec
        }

        #[test]
        fn to_json_bytes_are_pinned() {
            assert_eq!(
                pause_spec().to_json(),
                r#"{"annotations":{},"hostname":"pod-7-pause","linux":{"cgroupsPath":"/kubepods/pod-7-pause","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/pause"],"cwd":"/","env":[],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
            assert_eq!(
                workload_spec().to_json(),
                r#"{"annotations":{"module.wasm.image/variant":"compat"},"hostname":"pod-7-app","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}]},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm"],"cwd":"/","env":["SERVICE_NAME=microservice"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
            assert_eq!(
                escapy_spec().to_json(),
                r#"{"annotations":{"container.sim/watchdog-epoch-budget-ns":"30000000000","module.wasm.image/variant":"compat","note/\"quoted\"":"tab\there\r\n"},"hostname":"nœud-😀","linux":{"cgroupsPath":"/kubepods/pod-7/pod-7-app","namespaces":[{"type":"pid"},{"type":"mount"},{"type":"network"},{"type":"uts"},{"type":"ipc"},{"type":"cgroup"}],"resources":{"memory":{"limit":67108864}}},"mounts":[{"destination":"/proc","options":[],"source":"proc","type":"proc"}],"ociVersion":"1.0.2","process":{"args":["/app/main.wasm","--greeting=\"héllo\\世界\"\n"],"cwd":"/","env":["SERVICE_NAME=microservice","BELL=\u0007\u001f"],"terminal":false},"root":{"path":"rootfs","readonly":true}}"#
            );
        }
    }

    mod proptests {
        //! Property tests for the OCI layer: JSON round-trips over arbitrary
        //! values, and the runtime-spec writer against the tree serializer over
        //! arbitrary specs. Runs on the offline `simkernel::prop` harness.

        use std::collections::BTreeMap;

        use crate::json::{parse, Value};
        use crate::spec::{
            LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec,
        };
        use simkernel::prop::check;
        use simkernel::rng::SplitMix64;

        const PLAIN: &[char] =
            &['a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '5', '9', ' ', '_', '.', '/', '-'];
        const ESCAPY: &[char] = &['"', '\\', '\n', '\t', 'é', '世', 'a', 'k', 'q'];

        fn gen_json(g: &mut SplitMix64, depth: u32) -> Value {
            let max = if depth == 0 { 5 } else { 7 };
            match g.index(max) {
                0 => Value::Null,
                1 => Value::Bool(g.next_bool()),
                // Integers in the f64-exact range round-trip precisely.
                2 => Value::Number(g.range_i64(-1_000_000_000, 1_000_000_000) as f64),
                3 => Value::String(g.string_upto(PLAIN, 0, 25)),
                // Strings exercising escapes.
                4 => Value::String(g.string_upto(ESCAPY, 0, 12)),
                5 => Value::Array((0..g.index(4)).map(|_| gen_json(g, depth - 1)).collect()),
                _ => {
                    let mut obj = BTreeMap::new();
                    for _ in 0..g.index(4) {
                        let key = g.string_upto(&['a', 'b', 'c', 'd', 'm', 'z'], 1, 9);
                        obj.insert(key, gen_json(g, depth - 1));
                    }
                    Value::Object(obj)
                }
            }
        }

        #[test]
        fn json_roundtrip() {
            check("json_roundtrip", 256, |g| {
                let v = gen_json(g, 3);
                let text = v.to_json();
                let back = parse(&text).unwrap();
                assert_eq!(back, v);
            });
        }

        #[test]
        fn parser_never_panics_on_garbage() {
            const SOUP: &[char] = &[
                '{', '}', '[', ']', '"', ':', ',', '\\', 'n', 't', 'e', '1', '9', '-', '+', '.',
                'E', ' ', '\n', 'é', '\u{0}', 'u', '0', 'x',
            ];
            check("parser_never_panics_on_garbage", 512, |g| {
                let input = g.string_upto(SOUP, 0, 64);
                let _ = parse(&input);
            });
        }

        #[test]
        fn parser_never_panics_on_bytes() {
            check("parser_never_panics_on_bytes", 512, |g| {
                let input: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
                if let Ok(s) = std::str::from_utf8(&input) {
                    let _ = parse(s);
                }
            });
        }

        /// Everything the string writer escapes (`"`, `\`, the short escapes,
        /// other control characters), DEL, `/`, non-ASCII of every UTF-8 width,
        /// and plain letters.
        const ESCAPE_SET: &[char] = &[
            '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}',
            '/', 'é', '世', '😀', 'a', 'Z', '=',
        ];

        /// A string from the escape set, sometimes empty.
        fn text(g: &mut SplitMix64) -> String {
            g.string_upto(ESCAPE_SET, 0, 9)
        }

        /// Up to three strings; a quarter of the time none.
        fn texts(g: &mut SplitMix64) -> Vec<String> {
            (0..g.index(4)).map(|_| text(g)).collect()
        }

        /// [`texts`] for a spec's static lists: the few kilobytes a run
        /// draws are leaked.
        fn static_texts(g: &mut SplitMix64) -> &'static [&'static str] {
            texts(g).into_iter().map(|t| &*t.leak()).collect::<Vec<_>>().leak()
        }

        /// Any spec at all: every string drawn from the escape set, any namespace
        /// names, any mounts, an absent limit or any `u64`, and every list, map
        /// and string sometimes empty.
        fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
            RuntimeSpec {
                oci_version: text(g).leak(),
                process: ProcessSpec {
                    args: texts(g),
                    env: texts(g),
                    cwd: text(g).leak(),
                    terminal: g.next_bool(),
                },
                root: RootSpec { path: text(g).leak(), readonly: g.next_bool() },
                hostname: text(g),
                mounts: (0..g.index(3))
                    .map(|_| MountSpec {
                        destination: text(g).leak(),
                        source: text(g).leak(),
                        fstype: text(g).leak(),
                        options: static_texts(g),
                    })
                    .collect::<Vec<_>>()
                    .leak(),
                annotations: (0..g.index(4)).map(|_| (text(g), text(g))).collect(),
                linux: LinuxSpec {
                    namespaces: static_texts(g),
                    cgroups_path: text(g),
                    // Every magnitude equally often.
                    memory: MemoryResources {
                        limit: g.next_bool().then(|| g.next_u64() >> g.index(64)),
                    },
                },
            }
        }

        /// `to_json` writes what serializing the equivalent tree writes, as far
        /// as an `f64` holds the limit exactly (`memory_limit_survives` covers
        /// the rest): the same keys, order, escapes and number text.
        #[test]
        fn runtime_spec_serializes_as_the_tree_does() {
            let (mut exact_limits, mut empty_lists) = (0, 0);
            check("runtime_spec_serializes_as_the_tree_does", 512, |g| {
                let spec = gen_spec(g);
                let json = spec.to_json();
                if spec.linux.memory.limit.is_none_or(|l| l < 1 << 53) {
                    assert_eq!(json, parse(&json).unwrap().to_json());
                    exact_limits += spec.linux.memory.limit.is_some() as u32;
                }
                empty_lists += (spec.mounts.is_empty() && spec.linux.namespaces.is_empty()) as u32;
            });
            // The generator reaches limits the tree holds, and the empty ends.
            assert!(exact_limits > 20 && empty_lists > 20, "{exact_limits} {empty_lists}");
            let empty = RuntimeSpec::default().to_json();
            assert_eq!(empty, parse(&empty).unwrap().to_json());
        }
    }
}
