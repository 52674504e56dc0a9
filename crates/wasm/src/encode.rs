//! Binary encoder: [`Module`] → bytes. Inverse of [`crate::decode`];
//! round-trip fidelity is enforced by property tests.

use crate::instr::{write_instr, Instruction};
use crate::leb128;
use crate::module::{ExportDesc, Module};
use crate::types::Limits;

fn write_name(out: &mut Vec<u8>, s: &str) {
    leb128::write_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn write_limits(out: &mut Vec<u8>, l: &Limits) {
    match l.max {
        None => {
            out.push(0x00);
            leb128::write_u32(out, l.min);
        }
        Some(max) => {
            out.push(0x01);
            leb128::write_u32(out, l.min);
            leb128::write_u32(out, max);
        }
    }
}

fn section(out: &mut Vec<u8>, id: u8, body: Vec<u8>) {
    if body.is_empty() {
        return;
    }
    out.push(id);
    leb128::write_u32(out, body.len() as u32);
    out.extend_from_slice(&body);
}

/// Encode a module to its binary representation.
pub fn encode_module(m: &Module) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    out.extend_from_slice(b"\0asm");
    out.extend_from_slice(&1u32.to_le_bytes());

    // Type section (1).
    if !m.types.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.types.len() as u32);
        for t in &m.types {
            b.push(0x60);
            leb128::write_u32(&mut b, t.params.len() as u32);
            for p in &t.params {
                b.push(p.byte());
            }
            leb128::write_u32(&mut b, t.results.len() as u32);
            for r in &t.results {
                b.push(r.byte());
            }
        }
        section(&mut out, 1, b);
    }

    // Import section (2).
    if !m.imports.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.imports.len() as u32);
        for imp in &m.imports {
            write_name(&mut b, &imp.module);
            write_name(&mut b, &imp.name);
            b.push(0x00);
            leb128::write_u32(&mut b, imp.type_idx);
        }
        section(&mut out, 2, b);
    }

    // Function section (3).
    if !m.funcs.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.funcs.len() as u32);
        for t in &m.funcs {
            leb128::write_u32(&mut b, *t);
        }
        section(&mut out, 3, b);
    }

    // Memory section (5).
    if !m.memories.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.memories.len() as u32);
        for mem in &m.memories {
            write_limits(&mut b, &mem.limits);
        }
        section(&mut out, 5, b);
    }

    // Export section (7).
    if !m.exports.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.exports.len() as u32);
        for e in &m.exports {
            write_name(&mut b, &e.name);
            match e.desc {
                ExportDesc::Func(i) => {
                    b.push(0x00);
                    leb128::write_u32(&mut b, i);
                }
                ExportDesc::Memory(i) => {
                    b.push(0x02);
                    leb128::write_u32(&mut b, i);
                }
            }
        }
        section(&mut out, 7, b);
    }

    // Code section (10).
    if !m.bodies.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.bodies.len() as u32);
        for body in &m.bodies {
            let mut fb = Vec::new();
            leb128::write_u32(&mut fb, body.locals.len() as u32);
            for (count, ty) in &body.locals {
                leb128::write_u32(&mut fb, *count);
                fb.push(ty.byte());
            }
            fb.extend_from_slice(&body.code);
            leb128::write_u32(&mut b, fb.len() as u32);
            b.extend_from_slice(&fb);
        }
        section(&mut out, 10, b);
    }

    // Data section (11).
    if !m.data.is_empty() {
        let mut b = Vec::new();
        leb128::write_u32(&mut b, m.data.len() as u32);
        for d in &m.data {
            leb128::write_u32(&mut b, d.memory);
            write_instr(&mut b, &Instruction::I32Const(d.offset));
            write_instr(&mut b, &Instruction::End);
            leb128::write_u32(&mut b, d.bytes.len() as u32);
            b.extend_from_slice(&d.bytes);
        }
        section(&mut out, 11, b);
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode_module;
    use crate::module::{DataSegment, Export, FuncBody, Import};
    use crate::types::{FuncType, MemoryType, ValType};
    use bytelite::Bytes;

    #[test]
    fn empty_module() {
        let m = Module::default();
        let bytes = encode_module(&m);
        assert_eq!(&bytes[..4], b"\0asm");
        assert_eq!(decode_module(bytes).unwrap(), m);
    }

    #[test]
    fn full_roundtrip() {
        let mut m = Module::default();
        m.types.push(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]));
        m.types.push(FuncType::new(vec![], vec![]));
        m.imports.push(Import {
            module: "wasi_snapshot_preview1".into(),
            name: "proc_exit".into(),
            type_idx: 1,
        });
        m.funcs.push(0);
        m.memories.push(MemoryType { limits: Limits::new(1, Some(16)) });
        m.exports.push(Export { name: "add".into(), desc: ExportDesc::Func(1) });
        m.exports.push(Export { name: "memory".into(), desc: ExportDesc::Memory(0) });
        m.bodies.push(FuncBody {
            locals: vec![(1, ValType::I64)],
            code: Bytes::from_static(&[0x20, 0x00, 0x20, 0x01, 0x6a, 0x0b]),
        });
        m.data.push(DataSegment { memory: 0, offset: 8, bytes: Bytes::from_static(b"hello") });

        let bytes = encode_module(&m);
        let back = decode_module(bytes).unwrap();
        assert_eq!(back, m);
    }
}
