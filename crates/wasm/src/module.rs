//! The decoded module structure (spec §2.5).
//!
//! Function bodies are kept as **raw expression bytes** (`bytelite::Bytes`,
//! zero-copy slices of the module binary). This mirrors WAMR's classic
//! interpreter, which executes bytecode in place: keeping bodies un-expanded
//! is precisely the memory property the paper's WAMR-in-crun integration
//! exploits, and the lowering tier ([`crate::lowered`]) is the explicit,
//! memory-hungry alternative.

use bytelite::Bytes;

use crate::types::{FuncType, GlobalType, MemoryType, TableType, ValType};

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportDesc {
    /// A function with the given type index.
    Func(u32),
    Table(TableType),
    Memory(MemoryType),
    Global(GlobalType),
}

/// One import: `module.name` with a description.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    pub module: String,
    pub name: String,
    pub desc: ImportDesc,
}

/// What an export exposes (index into the respective space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportDesc {
    Func(u32),
    Table(u32),
    Memory(u32),
    Global(u32),
}

/// One export.
#[derive(Debug, Clone, PartialEq)]
pub struct Export {
    pub name: String,
    pub desc: ExportDesc,
}

/// A constant initializer expression (MVP subset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstExpr {
    I32(i32),
    I64(i64),
    F32(f32),
    F64(f64),
    /// Reference to an (imported, immutable) global.
    GlobalGet(u32),
}

/// A module-defined global.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Global {
    pub ty: GlobalType,
    pub init: ConstExpr,
}

/// An active element segment (table initializer).
#[derive(Debug, Clone, PartialEq)]
pub struct ElementSegment {
    pub table: u32,
    pub offset: ConstExpr,
    pub funcs: Vec<u32>,
}

/// An active data segment (memory initializer).
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    pub memory: u32,
    pub offset: ConstExpr,
    pub bytes: Bytes,
}

/// A function body: compressed local declarations plus raw expression bytes
/// (including the terminating `end` opcode).
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    pub locals: Vec<(u32, ValType)>,
    pub code: Bytes,
}

impl FuncBody {
    /// Total number of declared locals (excluding parameters).
    pub fn local_count(&self) -> u32 {
        self.locals.iter().map(|(n, _)| *n).sum()
    }

    /// Expand the compressed local declarations into a flat type list.
    pub fn expand_locals(&self) -> Vec<ValType> {
        let mut out = Vec::with_capacity(self.local_count() as usize);
        for (count, ty) in &self.locals {
            for _ in 0..*count {
                out.push(*ty);
            }
        }
        out
    }
}

/// A decoded WebAssembly module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    pub types: Vec<FuncType>,
    pub imports: Vec<Import>,
    /// Type indices of module-defined functions.
    pub funcs: Vec<u32>,
    pub tables: Vec<TableType>,
    pub memories: Vec<MemoryType>,
    pub globals: Vec<Global>,
    pub exports: Vec<Export>,
    pub start: Option<u32>,
    pub elements: Vec<ElementSegment>,
    /// Bodies of module-defined functions (parallel to `funcs`).
    pub bodies: Vec<FuncBody>,
    pub data: Vec<DataSegment>,
    /// Custom sections, preserved verbatim.
    pub customs: Vec<(String, Bytes)>,
    /// Shared per-function derived code — lowered functions and control
    /// side-tables (excluded from `Clone` and `PartialEq` — it is derived
    /// state, not module identity).
    pub(crate) compiled: crate::lowered::CompiledCode,
}

impl Module {
    /// Number of imported functions (they precede local ones in the index
    /// space).
    pub fn num_imported_funcs(&self) -> u32 {
        self.imports.iter().filter(|i| matches!(i.desc, ImportDesc::Func(_))).count() as u32
    }

    pub fn num_imported_globals(&self) -> u32 {
        self.imports.iter().filter(|i| matches!(i.desc, ImportDesc::Global(_))).count() as u32
    }

    pub fn num_imported_tables(&self) -> u32 {
        self.imports.iter().filter(|i| matches!(i.desc, ImportDesc::Table(_))).count() as u32
    }

    pub fn num_imported_memories(&self) -> u32 {
        self.imports.iter().filter(|i| matches!(i.desc, ImportDesc::Memory(_))).count() as u32
    }

    /// Total size of the function index space.
    pub fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.funcs.len() as u32
    }

    /// Type index of a function in the combined index space.
    pub fn func_type_idx(&self, func_idx: u32) -> Option<u32> {
        let imported = self.num_imported_funcs();
        if func_idx < imported {
            self.imports
                .iter()
                .filter_map(|i| match i.desc {
                    ImportDesc::Func(t) => Some(t),
                    _ => None,
                })
                .nth(func_idx as usize)
        } else {
            self.funcs.get((func_idx - imported) as usize).copied()
        }
    }

    /// Resolved type of a function in the combined index space.
    pub fn func_type(&self, func_idx: u32) -> Option<&FuncType> {
        self.types.get(self.func_type_idx(func_idx)? as usize)
    }

    /// Body of a module-defined function in the combined index space.
    pub fn func_body(&self, func_idx: u32) -> Option<&FuncBody> {
        let imported = self.num_imported_funcs();
        if func_idx < imported {
            return None;
        }
        self.bodies.get((func_idx - imported) as usize)
    }

    /// Find an export by name.
    pub fn export(&self, name: &str) -> Option<&Export> {
        self.exports.iter().find(|e| e.name == name)
    }

    /// Find an exported function index by name.
    pub fn exported_func(&self, name: &str) -> Option<u32> {
        match self.export(name)?.desc {
            ExportDesc::Func(i) => Some(i),
            _ => None,
        }
    }

    /// Total bytes of raw function code — what an in-place interpreter keeps
    /// resident and an eager compiler expands.
    pub fn code_size(&self) -> u64 {
        self.bodies.iter().map(|b| b.code.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_spaces() {
        let mut m = Module::default();
        m.types.push(FuncType::new(vec![], vec![]));
        m.types.push(FuncType::new(vec![ValType::I32], vec![ValType::I32]));
        m.imports.push(Import {
            module: "env".into(),
            name: "f".into(),
            desc: ImportDesc::Func(1),
        });
        m.funcs.push(0);
        m.bodies.push(FuncBody { locals: vec![], code: Bytes::from_static(&[0x0b]) });
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.func_type_idx(0), Some(1));
        assert_eq!(m.func_type_idx(1), Some(0));
        assert_eq!(m.func_type_idx(2), None);
        assert!(m.func_body(0).is_none(), "imports have no body");
        assert!(m.func_body(1).is_some());
    }

    #[test]
    fn locals_expansion() {
        let b = FuncBody {
            locals: vec![(2, ValType::I32), (1, ValType::F64)],
            code: Bytes::from_static(&[0x0b]),
        };
        assert_eq!(b.local_count(), 3);
        assert_eq!(b.expand_locals(), vec![ValType::I32, ValType::I32, ValType::F64]);
    }

    #[test]
    fn export_lookup() {
        let mut m = Module::default();
        m.exports.push(Export { name: "_start".into(), desc: ExportDesc::Func(0) });
        m.exports.push(Export { name: "memory".into(), desc: ExportDesc::Memory(0) });
        assert_eq!(m.exported_func("_start"), Some(0));
        assert_eq!(m.exported_func("memory"), None);
        assert!(m.export("nope").is_none());
    }
}
