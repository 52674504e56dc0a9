//! Property tests for the OCI layer: JSON round-trips over arbitrary
//! values, and runtime-spec round-trips over arbitrary specs. Runs on the
//! offline `simkernel::prop` harness.

use std::collections::BTreeMap;

use oci_spec_lite::json::{parse, Value};
use oci_spec_lite::{LinuxSpec, MemoryResources, MountSpec, ProcessSpec, RootSpec, RuntimeSpec};
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
        '{', '}', '[', ']', '"', ':', ',', '\\', 'n', 't', 'e', '1', '9', '-', '+', '.', 'E', ' ',
        '\n', 'é', '\u{0}', 'u', '0', 'x',
    ];
    check("parser_never_panics_on_garbage", 512, |g| {
        let input = g.string_upto(SOUP, 0, 64);
        let _ = parse(&input);
        let _ = RuntimeSpec::from_json(&input);
    });
}

#[test]
fn parser_never_panics_on_bytes() {
    check("parser_never_panics_on_bytes", 512, |g| {
        let input: Vec<u8> = (0..g.index(64)).map(|_| g.next_u32() as u8).collect();
        if let Ok(s) = std::str::from_utf8(&input) {
            let _ = parse(s);
            let _ = RuntimeSpec::from_json(s);
        }
    });
}

fn gen_spec(g: &mut SplitMix64) -> RuntimeSpec {
    const ARG: &[char] = &['a', 'z', 'A', 'Z', '0', '9', '_', '.', '/', '-'];
    const KEY: &[char] = &['A', 'B', 'M', 'X', '_'];
    const VAL: &[char] = &['a', 'z', '0', '9', ':', '/'];
    let args = (0..1 + g.index(3)).map(|_| g.string_upto(ARG, 1, 21)).collect();
    let env = (0..g.index(4))
        .map(|_| format!("{}={}", g.string_upto(KEY, 1, 11), g.string_upto(VAL, 0, 17)))
        .collect();
    let mut annotations = BTreeMap::new();
    for _ in 0..g.index(3) {
        annotations.insert(
            g.string_upto(&['a', 'k', 'z', '.'], 1, 17),
            g.string_upto(&['a', 'z', '0', '9'], 0, 9),
        );
    }
    RuntimeSpec {
        oci_version: "1.0.2".into(),
        process: ProcessSpec {
            args,
            env,
            cwd: format!("/{}", g.string_upto(&['a', 'm', 'z'], 0, 11)),
            terminal: g.next_bool(),
        },
        root: RootSpec { path: "rootfs".into(), readonly: g.next_bool() },
        hostname: g.string_upto(&['a', 'z', '0', '9', '-'], 1, 13),
        mounts: (0..g.index(3))
            .map(|i| MountSpec {
                destination: format!("/mnt/{i}"),
                source: format!("src{i}"),
                fstype: "tmpfs".into(),
                options: vec!["ro".into()],
            })
            .collect(),
        annotations,
        linux: LinuxSpec {
            namespaces: vec!["pid".into(), "mount".into(), "network".into()],
            cgroups_path: "/kubepods/p".into(),
            memory: MemoryResources { limit: g.next_bool().then(|| g.range_u64(1, 1 << 32)) },
        },
    }
}

#[test]
fn runtime_spec_roundtrip() {
    check("runtime_spec_roundtrip", 128, |g| {
        let spec = gen_spec(g);
        let json = spec.to_json();
        let back = RuntimeSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    });
}
