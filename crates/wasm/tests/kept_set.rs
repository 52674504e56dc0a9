//! The Wasm the engine accepts is the Wasm the guests run.
//!
//! Modules here are assembled by hand, byte by byte, because the builder
//! only emits what the engine keeps. Every opcode, section, value type and
//! block type outside the kept set must be turned away by `decode_module`
//! or, for function bodies, by `validate_module`, with a typed error that
//! names the offending byte; the kept opcodes must round-trip through the
//! instruction reader and writer.

use wasm_core::instr::{read_instr, write_instr};
use wasm_core::{decode_module, validate_module, DecodeError, ValidationError};

/// The opcodes the guests use, each with a canonical immediate.
const KEPT: [&[u8]; 23] = [
    &[0x02, 0x40],       // block
    &[0x03, 0x40],       // loop
    &[0x0b],             // end
    &[0x0c, 0x03],       // br 3
    &[0x0d, 0x00],       // br_if 0
    &[0x10, 0x05],       // call 5
    &[0x1a],             // drop
    &[0x20, 0x02],       // local.get 2
    &[0x21, 0x01],       // local.set 1
    &[0x29, 0x03, 0x08], // i64.load align=3 offset=8
    &[0x36, 0x02, 0x00], // i32.store align=2 offset=0
    &[0x40, 0x00],       // memory.grow
    &[0x41, 0x7f],       // i32.const -1
    &[0x42, 0x80, 0x01], // i64.const 128
    &[0x45],             // i32.eqz
    &[0x46],             // i32.eq
    &[0x5a],             // i64.ge_u
    &[0x6a],             // i32.add
    &[0x6b],             // i32.sub
    &[0x6c],             // i32.mul
    &[0x73],             // i32.xor
    &[0x76],             // i32.shr_u
    &[0x77],             // i32.rotl
];

fn section(out: &mut Vec<u8>, id: u8, body: &[u8]) {
    out.push(id);
    out.push(body.len() as u8);
    out.extend_from_slice(body);
}

/// A module with one `() -> ()` function (or `(param) -> ()` when `param`
/// is given) whose body is `body` plus the closing `end`, a one-page
/// memory, and `extra` sections spliced in id order.
fn module(param: Option<u8>, locals: &[u8], body: &[u8], extra: &[(u8, &[u8])]) -> Vec<u8> {
    let mut out = b"\0asm\x01\0\0\0".to_vec();
    let ty: Vec<u8> = match param {
        Some(t) => vec![1, 0x60, 1, t, 0],
        None => vec![1, 0x60, 0, 0],
    };
    let mut code = locals.to_vec();
    code.extend_from_slice(body);
    code.push(0x0b);
    let mut code_section = vec![1, code.len() as u8];
    code_section.extend_from_slice(&code);
    let mut sections: Vec<(u8, Vec<u8>)> = vec![
        (1, ty),
        (3, vec![1, 0]),
        (5, vec![1, 0x00, 1]),
        (7, vec![1, 1, b'f', 0x00, 0]),
        (10, code_section),
    ];
    sections.extend(extra.iter().map(|(id, b)| (*id, b.to_vec())));
    // Custom sections (id 0) may go anywhere; put them last.
    sections.sort_by_key(|(id, _)| if *id == 0 { u8::MAX } else { *id });
    for (id, body) in &sections {
        section(&mut out, *id, body);
    }
    out
}

/// Why `bytes` is not a module this engine runs, or `None` if it is: the
/// decoder's error, or the one the validator found in a function body.
fn rejection(bytes: Vec<u8>) -> Option<DecodeError> {
    match decode_module(bytes) {
        Err(e) => Some(e),
        Ok(m) => match validate_module(&m) {
            Ok(()) => None,
            Err(ValidationError::Decode(e)) => Some(e),
            Err(other) => panic!("rejected for another reason: {other}"),
        },
    }
}

fn assert_rejected(bytes: Vec<u8>, want: DecodeError) {
    assert_eq!(rejection(bytes), Some(want.clone()), "{want}");
}

#[test]
fn the_kept_module_shape_is_accepted() {
    assert_eq!(rejection(module(None, &[0], &[], &[])), None);
    assert_eq!(rejection(module(Some(0x7e), &[1, 1, 0x7f], &[0x02, 0x40, 0x0b], &[])), None);
}

#[test]
fn every_opcode_outside_the_kept_set_is_rejected() {
    for op in 0..=u8::MAX {
        if KEPT.iter().any(|k| k[0] == op) {
            continue;
        }
        assert_rejected(module(None, &[0], &[op], &[]), DecodeError::BadOpcode(op));
    }
}

#[test]
fn unkept_sections_value_types_and_block_types_are_rejected() {
    let unkept: [(u8, &[u8]); 5] = [
        (0, &[1, b'c', 1, 2]),                   // custom "c"
        (4, &[1, 0x70, 0x00, 1]),                // table funcref min 1
        (6, &[1, 0x7f, 0x00, 0x41, 0x00, 0x0b]), // global i32 = 0
        (8, &[0]),                               // start: function 0
        (9, &[1, 0, 0x41, 0x00, 0x0b, 1, 0]),    // element: table 0 = [0]
    ];
    for (id, body) in unkept {
        assert_rejected(module(None, &[0], &[], &[(id, body)]), DecodeError::UnknownSection(id));
    }
    for t in [0x7d, 0x7c] {
        assert_rejected(module(Some(t), &[0], &[], &[]), DecodeError::BadValType(t));
        assert_rejected(module(None, &[1, 1, t], &[], &[]), DecodeError::BadValType(t));
    }
    for bt in 0..=u8::MAX {
        if bt == 0x40 {
            continue;
        }
        for opener in [0x02, 0x03] {
            let body = [opener, bt, 0x0b];
            assert_rejected(module(None, &[0], &body, &[]), DecodeError::BadBlockType(bt));
        }
    }
}

#[test]
fn kept_opcodes_round_trip_through_the_reader_and_writer() {
    for bytes in KEPT {
        let (instr, n) = read_instr(bytes).expect("a kept opcode reads");
        assert_eq!(n, bytes.len(), "{bytes:02x?}");
        let mut out = Vec::new();
        write_instr(&mut out, &instr);
        assert_eq!(out, bytes, "{instr:?}");
    }
}
