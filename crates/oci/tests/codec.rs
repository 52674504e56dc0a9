//! The `config.json` codec: exact bytes out, exact tolerance in.
//!
//! A bundle's `config.json` is simulated by its size (`config_kib ×
//! parse_ns_per_kib`, page-cache pages), so `RuntimeSpec::to_json` may not
//! move by a byte: the goldens below were recorded before the direct codec
//! replaced the DOM-based one. That DOM-based decoder lives on here as
//! [`reference_from_json`], the oracle `RuntimeSpec::from_json` is compared
//! against over generated specs and over hostile documents.

use oci_spec_lite::json::{parse, JsonError, Value};
use oci_spec_lite::{
    LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec,
    WASM_VARIANT_ANNOTATION, WATCHDOG_BUDGET_ANNOTATION,
};
use simkernel::prop::check;
use simkernel::rng::SplitMix64;

/// The pod's pause container, as `Containerd::run_pod_sandbox` builds it.
fn pause_spec() -> RuntimeSpec {
    RuntimeSpec::for_command("pod-7-pause", vec!["/pause".to_string()])
}

/// A workload container, as `Containerd::create_container_with` builds it
/// from the microservice image: image env and annotations, `cgroupsPath`
/// under the pod.
fn workload_spec() -> RuntimeSpec {
    let mut spec = RuntimeSpec::for_command("pod-7-app", vec!["/app/main.wasm".to_string()]);
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
    spec.annotations.insert(WATCHDOG_BUDGET_ANNOTATION.to_string(), "30000000000".to_string());
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
    // Every golden reads back as the spec that wrote it.
    for spec in [pause_spec(), workload_spec(), escapy_spec()] {
        assert_eq!(RuntimeSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}

/// `RuntimeSpec::from_json` as it was when it went through the tree:
/// parse everything, then look members up. Its tolerance rules — unknown
/// keys ignored, wrong types read as defaults, the last duplicate wins —
/// are the tree's, and are what the direct decoder must reproduce.
fn reference_from_json(input: &str) -> Result<RuntimeSpec, JsonError> {
    let v = parse(input)?;
    let text = |v: Option<&Value>| v.and_then(Value::as_str).map(str::to_string);
    let null = Value::Null;
    let process = v.get("process").unwrap_or(&null);
    let root = v.get("root").unwrap_or(&null);
    let linux = v.get("linux").unwrap_or(&null);
    let mounts = v.get("mounts").and_then(Value::as_array).unwrap_or_default();
    let namespaces = linux.get("namespaces").and_then(Value::as_array).unwrap_or_default();
    let annotations = v.get("annotations").and_then(Value::as_object);
    Ok(RuntimeSpec {
        oci_version: text(v.get("ociVersion")).unwrap_or_default(),
        process: ProcessSpec {
            args: process.str_list("args"),
            env: process.str_list("env"),
            cwd: text(process.get("cwd")).unwrap_or("/".into()),
            terminal: process.get("terminal").and_then(Value::as_bool).unwrap_or(false),
        },
        root: RootSpec {
            path: text(root.get("path")).unwrap_or("rootfs".into()),
            readonly: root.get("readonly").and_then(Value::as_bool).unwrap_or(false),
        },
        hostname: text(v.get("hostname")).unwrap_or_default(),
        mounts: mounts
            .iter()
            .map(|m| MountSpec {
                destination: text(m.get("destination")).unwrap_or_default(),
                source: text(m.get("source")).unwrap_or_default(),
                fstype: text(m.get("type")).unwrap_or_default(),
                options: m.str_list("options"),
            })
            .collect(),
        annotations: annotations
            .into_iter()
            .flatten()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        linux: LinuxSpec {
            namespaces: namespaces.iter().filter_map(|n| text(n.get("type"))).collect(),
            cgroups_path: text(linux.get("cgroupsPath")).unwrap_or_default(),
            memory: MemoryResources {
                limit: linux
                    .get("resources")
                    .and_then(|r| r.get("memory"))
                    .and_then(|m| m.get("limit"))
                    .and_then(Value::as_u64),
            },
        },
    })
}

/// Characters that exercise every writer and scanner path: the five short
/// escapes, a `\u00XX` control, DEL, two- three- and four-byte UTF-8.
const HOSTILE: &[char] =
    &['a', 'Z', '/', '=', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}', 'é', '世', '😀'];

fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
    let mut text = |max| g.string_upto(HOSTILE, 0, max);
    let mut spec = RuntimeSpec::for_command(&text(12), vec![text(20), text(8)]);
    spec.oci_version = text(6);
    spec.process.env = vec![text(16)];
    spec.process.cwd = text(10);
    spec.root.path = text(10);
    spec.mounts[0].options = vec![text(5), text(5)];
    spec.mounts[0].source = text(8);
    spec.linux.cgroups_path = text(24);
    spec.linux.namespaces.push(text(6));
    spec.annotations = (0..3).map(|_| (text(12), text(12))).collect();
    spec.process.terminal = g.next_bool();
    spec.root.readonly = g.next_bool();
    // Any u64: past 2^53 the document holds the nearest f64, and both
    // decoders must read back the same neighbour.
    spec.linux.memory.limit = g.next_bool().then(|| g.next_u64() >> g.index(64));
    if g.next_bool() {
        spec.mounts.clear();
    }
    spec
}

#[test]
fn generated_specs_decode_as_the_reference_does() {
    check("generated_specs_decode_as_the_reference_does", 256, |g| {
        let spec = gen_spec(g);
        let json = spec.to_json();
        // The tree serializer is the byte-level reference for the writer.
        assert_eq!(json, parse(&json).unwrap().to_json());
        let back = RuntimeSpec::from_json(&json).unwrap();
        assert_eq!(Ok(&back), reference_from_json(&json).as_ref());
        if spec.linux.memory.limit.is_none_or(|l| l < 1 << 53) {
            assert_eq!(back, spec);
        }
    });
}

/// What a well-formed `config.json` holds where.
enum Shape {
    Str,
    Bool,
    Num,
    List(&'static Shape),
    /// An object with free-form keys (`annotations`).
    Map(&'static Shape),
    Obj(&'static [(&'static str, Shape)]),
}

const STRINGS: Shape = Shape::List(&Shape::Str);
const CONFIG: Shape = Shape::Obj(&[
    ("ociVersion", Shape::Str),
    ("process", PROCESS),
    ("root", Shape::Obj(&[("path", Shape::Str), ("readonly", Shape::Bool)])),
    ("hostname", Shape::Str),
    ("mounts", Shape::List(&MOUNT)),
    ("annotations", Shape::Map(&Shape::Str)),
    ("linux", LINUX),
]);
const PROCESS: Shape = Shape::Obj(&[
    ("args", STRINGS),
    ("env", STRINGS),
    ("cwd", Shape::Str),
    ("terminal", Shape::Bool),
]);
const MOUNT: Shape = Shape::Obj(&[
    ("destination", Shape::Str),
    ("source", Shape::Str),
    ("type", Shape::Str),
    ("options", STRINGS),
]);
const LINUX: Shape = Shape::Obj(&[
    ("namespaces", Shape::List(&Shape::Obj(&[("type", Shape::Str)]))),
    ("cgroupsPath", Shape::Str),
    ("resources", Shape::Obj(&[("memory", Shape::Obj(&[("limit", Shape::Num)]))])),
]);

const SPACE: &[&str] = &["", "", "", " ", "\n\t", "\r "];

fn pick<'a>(g: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[g.index(items.len())]
}

/// A string literal, spelled as hostile input would spell it: raw
/// non-ASCII, every escape, `\u` forms, surrogate pairs — and now and then
/// something no parser may accept.
fn gen_string(g: &mut SplitMix64, out: &mut String) {
    const PIECES: &[&str] = &[
        "a",
        "rootfs",
        "/",
        "é世",
        "😀",
        "\\\"",
        "\\\\",
        "\\/",
        "\\b",
        "\\f",
        "\\n",
        "\\r",
        "\\t",
        "\\u0041",
        "\\u00e9",
        "\\u4E16",
        "\\ud83d\\ude00",
        "\\uD83D\\uDE00",
        "\u{7f}",
    ];
    const BROKEN: &[&str] =
        &["\\ud83d", "\\udc00", "\\ud83d\\u0041", "\\x", "\\u12", "\n", "\u{1}"];
    out.push('"');
    for _ in 0..g.index(5) {
        out.push_str(if g.index(40) == 0 { pick(g, BROKEN) } else { pick(g, PIECES) });
    }
    out.push('"');
}

/// A key: mostly spelled plainly, sometimes with a letter as a `\u` escape
/// (the same key to a JSON reader).
fn gen_key(g: &mut SplitMix64, key: &str, out: &mut String) {
    if g.index(6) == 0 && key.is_ascii() && !key.is_empty() {
        let at = g.index(key.len());
        let escaped = format!("{}\\u{:04x}{}", &key[..at], key.as_bytes()[at], &key[at + 1..]);
        out.push_str(&format!("\"{escaped}\""));
    } else {
        out.push_str(&format!("\"{key}\""));
    }
}

fn gen_number(g: &mut SplitMix64, out: &mut String) {
    const ODD: &[&str] = &[
        "0",
        "-0",
        "-1",
        "1.5",
        "2.0",
        "1e3",
        "1E+2",
        "25e-1",
        "1e300",
        "-1e300",
        "1e999",
        "9007199254740993",
        "18446744073709551615",
        "9223372036854775808",
        "01",
        "1.",
        "-",
        "1e",
        "-.5",
        "+1",
    ];
    if g.next_bool() {
        out.push_str(pick(g, ODD));
    } else {
        out.push_str(&g.range_u64(0, 1 << 40).to_string());
    }
}

/// Any JSON value at all, for the places a decoder expects something else.
fn gen_any(g: &mut SplitMix64, depth: u32, out: &mut String) {
    match g.index(if depth == 0 { 5 } else { 7 }) {
        0 => out.push_str("null"),
        1 => out.push_str(if g.next_bool() { "true" } else { "false" }),
        2 => gen_number(g, out),
        3 | 4 => gen_string(g, out),
        5 => gen_items(g, out, ['[', ']'], |g, out| gen_any(g, depth - 1, out)),
        _ => gen_items(g, out, ['{', '}'], |g, out| {
            let key = pick(g, &["type", "limit", "memory", "cwd", "k", ""]);
            gen_key(g, key, out);
            out.push(':');
            gen_any(g, depth - 1, out)
        }),
    }
}

fn gen_items(
    g: &mut SplitMix64,
    out: &mut String,
    brackets: [char; 2],
    mut item: impl FnMut(&mut SplitMix64, &mut String),
) {
    out.push(brackets[0]);
    for i in 0..g.index(4) {
        if i > 0 {
            out.push(',');
        }
        out.push_str(pick(g, SPACE));
        item(g, out);
        out.push_str(pick(g, SPACE));
    }
    out.push(brackets[1]);
}

/// A value of `shape` — or, one time in six, of any other kind. Objects
/// draw their members with replacement, so keys repeat, go missing, and
/// come in any order, with unknown members in between.
fn gen_shaped(g: &mut SplitMix64, shape: &Shape, out: &mut String) {
    if g.index(6) == 0 {
        return gen_any(g, 2, out);
    }
    match shape {
        Shape::Str => gen_string(g, out),
        Shape::Bool => out.push_str(if g.next_bool() { "true" } else { "false" }),
        Shape::Num => gen_number(g, out),
        Shape::List(of) => gen_items(g, out, ['[', ']'], |g, out| gen_shaped(g, of, out)),
        Shape::Map(of) => gen_items(g, out, ['{', '}'], |g, out| {
            let key = pick(g, &["a", "b", "module.wasm.image/variant", "é"]);
            gen_key(g, key, out);
            out.push(':');
            gen_shaped(g, of, out)
        }),
        Shape::Obj(fields) => {
            out.push('{');
            for i in 0..g.index(fields.len() + 3) {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(pick(g, SPACE));
                if g.index(5) == 0 {
                    let key = pick(g, &["unknown", "uid", "type", "x"]);
                    gen_key(g, key, out);
                    out.push(':');
                    gen_any(g, 2, out);
                } else {
                    let (key, of) = g.choose(fields);
                    gen_key(g, key, out);
                    out.push_str(pick(g, SPACE));
                    out.push(':');
                    out.push_str(pick(g, SPACE));
                    gen_shaped(g, of, out);
                }
            }
            out.push('}');
        }
    }
}

#[test]
fn hostile_documents_decode_as_the_reference_does() {
    let (mut accepted, mut limits, mut mounts) = (0, 0, 0);
    check("hostile_documents_decode_as_the_reference_does", 4096, |g| {
        let mut doc = String::from(pick(g, SPACE));
        gen_shaped(g, &CONFIG, &mut doc);
        doc.push_str(pick(g, SPACE));
        match g.index(8) {
            // Truncated anywhere a character ends.
            0 => {
                let cut = g.index(doc.len() + 1);
                doc.truncate((0..=cut).rev().find(|&i| doc.is_char_boundary(i)).unwrap());
            }
            // Trailing bytes.
            1 => doc.push_str(pick(g, &["x", "{}", ",", "\"", "1"])),
            _ => {}
        }
        let direct = RuntimeSpec::from_json(&doc);
        assert_eq!(direct, reference_from_json(&doc), "{doc}");
        if let Ok(spec) = direct {
            accepted += 1;
            limits += spec.linux.memory.limit.is_some() as u32;
            mounts += !spec.mounts.is_empty() as u32;
        }
    });
    // The generator reaches the depths of the schema, and is not all noise.
    assert!(accepted > 2000 && limits > 20 && mounts > 200, "{accepted} {limits} {mounts}");
}
