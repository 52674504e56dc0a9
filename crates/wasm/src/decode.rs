//! Binary decoder (spec §5): bytes → [`Module`].
//!
//! The sections it reads are the ones the guests carry: type, import,
//! function, memory, export, code and data (ids 1, 2, 3, 5, 7, 10 and 11).
//! Any other id — custom, table, global, start, element — is
//! [`DecodeError::UnknownSection`].
//!
//! Function bodies are taken as zero-copy [`Bytes`] slices of the input so
//! that an in-place interpreter over a page-cache-shared module binary
//! allocates essentially nothing — the property the WAMR profile measures.

use bytelite::Bytes;

use crate::error::DecodeError;
use crate::instr::{read_instr, Instruction};
use crate::leb128;
use crate::module::{DataSegment, Export, ExportDesc, FuncBody, Import, Module};
use crate::types::{FuncType, Limits, MemoryType, ValType};

const MAGIC: &[u8; 4] = b"\0asm";
const VERSION: u32 = 1;

struct Reader {
    data: Bytes,
    pos: usize,
}

impl Reader {
    fn new(data: Bytes) -> Self {
        Reader { data, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.data.get(self.pos).ok_or(DecodeError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<Bytes, DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof);
        }
        let s = self.data.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let (v, n) = leb128::read_u32(&self.data[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    fn name(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    fn valtype(&mut self) -> Result<ValType, DecodeError> {
        ValType::from_byte(self.byte()?)
    }

    fn limits(&mut self) -> Result<Limits, DecodeError> {
        match self.byte()? {
            0x00 => Ok(Limits::new(self.u32()?, None)),
            0x01 => {
                let min = self.u32()?;
                let max = self.u32()?;
                Ok(Limits::new(min, Some(max)))
            }
            other => Err(DecodeError::BadLimitsFlag(other)),
        }
    }

    /// A data segment's offset: `i32.const` followed by `end`.
    fn offset_expr(&mut self) -> Result<i32, DecodeError> {
        let (instr, n) = read_instr(&self.data[self.pos..])?;
        self.pos += n;
        let Instruction::I32Const(offset) = instr else {
            return Err(DecodeError::Malformed(format!(
                "data offset must be i32.const: {instr:?}"
            )));
        };
        let (end, n) = read_instr(&self.data[self.pos..])?;
        self.pos += n;
        if end != Instruction::End {
            return Err(DecodeError::Malformed("data offset must end with `end`".into()));
        }
        Ok(offset)
    }
}

/// Decode a complete module binary.
pub fn decode_module(bytes: impl Into<Bytes>) -> Result<Module, DecodeError> {
    let mut r = Reader::new(bytes.into());
    if r.take(4)?.as_ref() != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(r.take(4)?.as_ref().try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }

    let mut m = Module::default();
    let mut last_section = 0u8;
    let mut func_types: Option<Vec<u32>> = None;

    while r.remaining() > 0 {
        let id = r.byte()?;
        let size = r.u32()? as usize;
        let body_start = r.pos;
        if !matches!(id, 1 | 2 | 3 | 5 | 7 | 10 | 11) {
            return Err(DecodeError::UnknownSection(id));
        }
        if id <= last_section {
            return Err(DecodeError::SectionOrder(id));
        }
        last_section = id;
        match id {
            1 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let tag = r.byte()?;
                    if tag != 0x60 {
                        return Err(DecodeError::Malformed(format!(
                            "function type must begin with 0x60, got 0x{tag:02x}"
                        )));
                    }
                    let np = r.u32()?;
                    let mut params = Vec::with_capacity(np as usize);
                    for _ in 0..np {
                        params.push(r.valtype()?);
                    }
                    let nr = r.u32()?;
                    let mut results = Vec::with_capacity(nr as usize);
                    for _ in 0..nr {
                        results.push(r.valtype()?);
                    }
                    m.types.push(FuncType::new(params, results));
                }
            }
            2 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let module = r.name()?;
                    let name = r.name()?;
                    match r.byte()? {
                        0x00 => m.imports.push(Import { module, name, type_idx: r.u32()? }),
                        other => return Err(DecodeError::BadKind(other)),
                    }
                }
            }
            3 => {
                let count = r.u32()?;
                let mut v = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    v.push(r.u32()?);
                }
                func_types = Some(v);
            }
            5 => {
                let count = r.u32()?;
                for _ in 0..count {
                    m.memories.push(MemoryType { limits: r.limits()? });
                }
            }
            7 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let name = r.name()?;
                    let desc = match r.byte()? {
                        0x00 => ExportDesc::Func(r.u32()?),
                        0x02 => ExportDesc::Memory(r.u32()?),
                        other => return Err(DecodeError::BadKind(other)),
                    };
                    m.exports.push(Export { name, desc });
                }
            }
            10 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let body_size = r.u32()? as usize;
                    let body_end = r.pos + body_size;
                    if body_end > r.data.len() {
                        return Err(DecodeError::UnexpectedEof);
                    }
                    let n_locals = r.u32()?;
                    let mut locals = Vec::with_capacity(n_locals as usize);
                    let mut total: u64 = 0;
                    for _ in 0..n_locals {
                        let count = r.u32()?;
                        let ty = r.valtype()?;
                        total += count as u64;
                        if total > 1_000_000 {
                            return Err(DecodeError::Malformed("too many locals".into()));
                        }
                        locals.push((count, ty));
                    }
                    if r.pos > body_end {
                        return Err(DecodeError::UnexpectedEof);
                    }
                    let code = r.take(body_end - r.pos)?;
                    if code.last() != Some(&0x0b) {
                        return Err(DecodeError::Malformed(
                            "function body must end with `end`".into(),
                        ));
                    }
                    m.bodies.push(FuncBody { locals, code });
                }
            }
            11 => {
                let count = r.u32()?;
                for _ in 0..count {
                    let memory = r.u32()?;
                    let offset = r.offset_expr()?;
                    let n = r.u32()? as usize;
                    let bytes = r.take(n)?;
                    m.data.push(DataSegment { memory, offset, bytes });
                }
            }
            _ => unreachable!("id checked against the kept sections above"),
        }
        let consumed = r.pos - body_start;
        if consumed != size {
            return Err(DecodeError::SectionSizeMismatch {
                declared: size as u32,
                actual: consumed as u32,
            });
        }
    }

    let funcs = func_types.unwrap_or_default();
    if funcs.len() != m.bodies.len() {
        return Err(DecodeError::FuncCodeMismatch {
            funcs: funcs.len() as u32,
            bodies: m.bodies.len() as u32,
        });
    }
    m.funcs = funcs;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny hand-assembled module: `(module (func (export "f") (result i32)
    /// i32.const 7))`.
    fn tiny() -> Vec<u8> {
        let mut b = vec![];
        b.extend_from_slice(b"\0asm");
        b.extend_from_slice(&1u32.to_le_bytes());
        // Type section: 1 type, () -> (i32).
        b.extend_from_slice(&[1, 5, 1, 0x60, 0, 1, 0x7f]);
        // Function section: 1 func of type 0.
        b.extend_from_slice(&[3, 2, 1, 0]);
        // Export section: "f" -> func 0.
        b.extend_from_slice(&[7, 5, 1, 1, b'f', 0, 0]);
        // Code section: one body: no locals, i32.const 7, end.
        b.extend_from_slice(&[10, 6, 1, 4, 0, 0x41, 7, 0x0b]);
        b
    }

    #[test]
    fn decode_tiny() {
        let m = decode_module(tiny()).unwrap();
        assert_eq!(m.types.len(), 1);
        assert_eq!(m.types[0], FuncType::new(vec![], vec![ValType::I32]));
        assert_eq!(m.funcs, vec![0]);
        assert_eq!(m.exported_func("f"), Some(0));
        assert_eq!(m.bodies[0].code.as_ref(), &[0x41, 7, 0x0b]);
    }

    #[test]
    fn bad_magic() {
        assert_eq!(decode_module(&b"xasm\x01\0\0\0"[..]), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version() {
        let mut b = tiny();
        b[4] = 2;
        assert_eq!(decode_module(b), Err(DecodeError::BadVersion(2)));
    }

    #[test]
    fn section_order_enforced() {
        let mut b = vec![];
        b.extend_from_slice(b"\0asm");
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&[3, 2, 1, 0]); // function section first
        b.extend_from_slice(&[1, 5, 1, 0x60, 0, 1, 0x7f]); // then type: invalid
        assert_eq!(decode_module(b), Err(DecodeError::SectionOrder(1)));
    }

    #[test]
    fn size_mismatch_detected() {
        let mut b = tiny();
        // Inflate the declared size of the type section.
        b[9] = 6;
        assert!(matches!(
            decode_module(b),
            Err(DecodeError::SectionSizeMismatch { .. }) | Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn func_code_mismatch() {
        let mut b = vec![];
        b.extend_from_slice(b"\0asm");
        b.extend_from_slice(&1u32.to_le_bytes());
        b.extend_from_slice(&[1, 5, 1, 0x60, 0, 1, 0x7f]);
        b.extend_from_slice(&[3, 2, 1, 0]); // declares one function
                                            // no code section
        assert_eq!(decode_module(b), Err(DecodeError::FuncCodeMismatch { funcs: 1, bodies: 0 }));
    }

    #[test]
    fn truncated_module() {
        let mut b = tiny();
        b.truncate(b.len() - 2);
        assert!(decode_module(b).is_err());
    }

    #[test]
    fn empty_module_ok() {
        let mut b = vec![];
        b.extend_from_slice(b"\0asm");
        b.extend_from_slice(&1u32.to_le_bytes());
        let m = decode_module(b).unwrap();
        assert_eq!(m, Module::default());
    }

    #[test]
    fn sections_outside_the_kept_set_are_unknown() {
        for id in [0u8, 4, 6, 8, 9, 12] {
            let mut b = tiny();
            b.extend_from_slice(&[id, 1, 0]);
            assert_eq!(decode_module(b), Err(DecodeError::UnknownSection(id)), "id {id}");
        }
    }

    #[test]
    fn only_function_imports_and_function_or_memory_exports() {
        let header = b"\0asm\x01\0\0\0";
        for kind in [1u8, 2, 3] {
            let mut b = header.to_vec();
            b.extend_from_slice(&[2, 6, 1, 1, b'm', 1, b'n', kind]);
            assert_eq!(decode_module(b), Err(DecodeError::BadKind(kind)), "import kind {kind}");
        }
        for kind in [1u8, 3] {
            let mut b = header.to_vec();
            b.extend_from_slice(&[7, 5, 1, 1, b'e', kind, 0]);
            assert_eq!(decode_module(b), Err(DecodeError::BadKind(kind)), "export kind {kind}");
        }
    }

    #[test]
    fn zero_copy_bodies() {
        let src = Bytes::from(tiny());
        let m = decode_module(src.clone()).unwrap();
        // The body is a slice of the original allocation, not a copy.
        let body_ptr = m.bodies[0].code.as_ref().as_ptr() as usize;
        let src_range = src.as_ref().as_ptr() as usize..src.as_ref().as_ptr() as usize + src.len();
        assert!(src_range.contains(&body_ptr));
    }
}
