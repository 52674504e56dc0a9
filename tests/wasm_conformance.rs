//! Wasm-core conformance: spec-behaviour checks run on BOTH execution
//! tiers, so the in-place interpreter and the lowered executor must agree
//! with the spec and with each other.

use std::sync::Arc;

use memwasm::wasm_core::{
    ExecTier, FuncType, Imports, Instance, InstanceConfig, Instruction as I, ModuleBuilder, Trap,
    ValType, Value,
};

fn run_both(
    build: impl Fn() -> ModuleBuilder,
    func: &str,
    args: &[Value],
) -> [Result<Vec<Value>, Trap>; 2] {
    [ExecTier::InPlace, ExecTier::Lowered].map(|tier| {
        let module = Arc::new(build().build());
        let mut inst = Instance::instantiate(
            module,
            Imports::new(),
            InstanceConfig { tier, fuel: Some(10_000_000), ..Default::default() },
        )
        .expect("instantiate");
        inst.invoke(func, args)
    })
}

fn expect_both(build: impl Fn() -> ModuleBuilder, func: &str, args: &[Value], want: Value) {
    let [a, b] = run_both(build, func, args);
    assert_eq!(a.as_deref(), Ok(&[want][..]), "in-place");
    assert_eq!(b.as_deref(), Ok(&[want][..]), "lowered");
}

fn expect_trap(build: impl Fn() -> ModuleBuilder, func: &str, args: &[Value], want: Trap) {
    let [a, b] = run_both(build, func, args);
    assert_eq!(a, Err(want.clone()), "in-place");
    assert_eq!(b, Err(want), "lowered");
}

#[test]
fn wrapping_integer_arithmetic() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            f.local_get(0).local_get(1).op(I::I32Mul);
        });
        b.export_func("mul", f);
        b
    };
    expect_both(build, "mul", &[Value::I32(i32::MAX), Value::I32(2)], Value::I32(-2));
}

#[test]
fn memory_grow_and_bounds() {
    let build = || {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(2));
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            // grow(1) returns old size 1; grow(5) fails with -1; sum = 0.
            f.i32_const(1).op(I::MemoryGrow);
            f.i32_const(5).op(I::MemoryGrow);
            f.op(I::I32Add);
        });
        b.export_func("grow", f);
        let oob = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I64]), |f| {
            f.local_get(0).i64_load(0);
        });
        b.export_func("load", oob);
        b
    };
    expect_both(build, "grow", &[], Value::I32(0));
    expect_trap(build, "load", &[Value::I32(70 << 10)], Trap::MemoryOutOfBounds);
    expect_trap(build, "load", &[Value::I32((64 << 10) - 7)], Trap::MemoryOutOfBounds);
    expect_both(build, "load", &[Value::I32(0)], Value::I64(0));
}

#[test]
fn loop_branch_carries_params_to_loop_head() {
    // A loop whose label is the target of the back-edge `br`; the sum
    // travels from one iteration to the next in a local.
    let build = || {
        let mut b = ModuleBuilder::new();
        // Countdown using a loop whose label is branched to with br_if.
        let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
            let sum = f.local(ValType::I32);
            f.block(|f| {
                f.loop_(|f| {
                    f.local_get(0).op(I::I32Eqz).br_if(1);
                    f.local_get(sum).local_get(0).op(I::I32Add).local_set(sum);
                    f.local_get(0).i32_const(1).op(I::I32Sub).local_set(0);
                    f.br(0);
                });
            });
            f.local_get(sum);
        });
        b.export_func("sum", f);
        b
    };
    expect_both(build, "sum", &[Value::I32(1000)], Value::I32(500500));
}

#[test]
fn select_and_shift_semantics() {
    // The kept set has no `select`: a `br_if` out of an empty block picks
    // between rotl(a, 33) (cond == 0) and shr_u(a, 33) (cond != 0). Both
    // shift counts are masked to 5 bits, so 33 acts as 1.
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
            let out = f.local(ValType::I32);
            f.local_get(0).i32_const(33).op(I::I32Rotl).local_set(out);
            f.block(|f| {
                f.local_get(1).op(I::I32Eqz).br_if(0);
                f.local_get(0).i32_const(33).op(I::I32ShrU).local_set(out);
            });
            f.local_get(out);
        });
        b.export_func("f", f);
        b
    };
    expect_both(build, "f", &[Value::I32(1), Value::I32(0)], Value::I32(2));
    expect_both(build, "f", &[Value::I32(i32::MIN), Value::I32(0)], Value::I32(1));
    expect_both(build, "f", &[Value::I32(8), Value::I32(1)], Value::I32(4));
    expect_both(build, "f", &[Value::I32(-8), Value::I32(7)], Value::I32(0x7fff_fffc));
}

#[test]
fn fuel_limits_agree() {
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![]), |f| {
            f.loop_(|f| {
                f.br(0);
            });
        });
        b.export_func("spin", f);
        b
    };
    for tier in [ExecTier::InPlace, ExecTier::Lowered] {
        let module = Arc::new(build().build());
        let mut inst = Instance::instantiate(
            module,
            Imports::new(),
            InstanceConfig { tier, fuel: Some(1_000), ..Default::default() },
        )
        .unwrap();
        assert_eq!(inst.invoke("spin", &[]), Err(Trap::OutOfFuel), "{tier:?}");
    }
}

// ---------------------------------------------------------------------------
// Fused-tier stress: each superinstruction pattern the lowering tier fuses
// must produce spec behaviour identical to the in-place interpreter, and
// the pattern must actually hit the fusion path (`stats.fused_ops > 0`),
// so a regression that silently stops fusing fails loudly here.
// ---------------------------------------------------------------------------

/// Instantiate on the lowered tier and assert the module fused at least
/// one pattern (fusion is counted at compile time, per instance).
fn assert_fused(build: impl Fn() -> ModuleBuilder) {
    let module = Arc::new(build().build());
    let inst = Instance::instantiate(
        module,
        Imports::new(),
        InstanceConfig { tier: ExecTier::Lowered, fuel: Some(10_000_000), ..Default::default() },
    )
    .expect("instantiate");
    assert!(inst.stats().fused_ops > 0, "pattern must exercise superinstruction fusion");
}

#[test]
fn fused_local_operand_binops_agree() {
    // local.get + local.get + binop: operands fold straight into the op.
    for (op, a, b, want) in [
        (I::I32Add, 7, -3, 4),
        (I::I32Sub, 7, -3, 10),
        (I::I32Mul, -7, 3, -21),
        (I::I32Xor, 0b1100, 0b1010, 0b0110),
        (I::I32ShrU, -8, 31, 1),
        (I::I32ShrU, 8, 33, 4),
        (I::I32Rotl, i32::MIN, 33, 1),
        (I::I32Eq, 5, 5, 1),
    ] {
        let build = move || {
            let mut b = ModuleBuilder::new();
            let op = op.clone();
            let f =
                b.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                    f.local_get(0).local_get(1).op(op);
                });
            b.export_func("f", f);
            b
        };
        expect_both(&build, "f", &[Value::I32(a), Value::I32(b)], Value::I32(want));
        assert_fused(&build);
    }
}

#[test]
fn fused_const_imm_binops_agree() {
    // local.get + const + binop (+ local.set): the immediate folds into
    // the instruction word and the store retargets the destination slot.
    for (op, imm, a, want) in [
        (I::I32Add, 5, 37, 42),
        (I::I32Sub, 5, 37, 32),
        (I::I32Mul, -3, 7, -21),
        (I::I32Xor, -1, 0, -1),
        (I::I32ShrU, 2, -16, 0x3ffffffc),
        (I::I32ShrU, 34, -16, 0x3ffffffc),
    ] {
        let build = move || {
            let mut b = ModuleBuilder::new();
            let op = op.clone();
            let f = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I32]), |f| {
                let tmp = f.local(ValType::I32);
                f.local_get(0).i32_const(imm).op(op).local_set(tmp);
                f.local_get(tmp);
            });
            b.export_func("f", f);
            b
        };
        expect_both(&build, "f", &[Value::I32(a)], Value::I32(want));
        assert_fused(&build);
    }
}

#[test]
fn fused_const_address_loads_and_stores_agree() {
    // const + load / const + store: the address folds into the word, and
    // a folded out-of-bounds address must still trap identically.
    let build = || {
        let mut b = ModuleBuilder::new();
        b.memory(1, Some(1));
        let rt = b.func(FuncType::new(vec![ValType::I32], vec![ValType::I64]), |f| {
            f.i32_const(64).local_get(0).i32_store(8);
            f.i32_const(64).i32_const(-1).i32_store(12);
            f.i32_const(64).i64_load(8);
        });
        b.export_func("roundtrip", rt);
        let oob = b.func(FuncType::new(vec![], vec![ValType::I64]), |f| {
            f.i32_const(65 << 10).i64_load(0);
        });
        b.export_func("oob", oob);
        b
    };
    let want = Value::I64(-0x1_0000_0000 | 0x7654_3210);
    expect_both(build, "roundtrip", &[Value::I32(0x7654_3210)], want);
    expect_trap(build, "oob", &[], Trap::MemoryOutOfBounds);
    assert_fused(build);
}

#[test]
fn fused_compare_branches_agree_in_both_polarities() {
    // compare + br_if fuses to a branching compare (`i32.eq`, and `i32.eqz`
    // to a branch on zero). Drive each through a taken and a not-taken
    // branch, the signed/unsigned boundary at i32::MIN included.
    let cases: [(I, i32, i32, bool); 6] = [
        (I::I32Eq, 3, 3, true),
        (I::I32Eq, 3, 4, false),
        (I::I32Eq, i32::MIN, i32::MIN, true),
        (I::I32Eq, i32::MIN, 0, false),
        (I::I32Eqz, 0, 0, true),
        (I::I32Eqz, i32::MIN, 0, false),
    ];
    for (op, a, b, taken) in cases {
        let build = move || {
            let mut mb = ModuleBuilder::new();
            let op = op.clone();
            let f =
                mb.func(FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]), |f| {
                    let r = f.local(ValType::I32);
                    f.i32_const(1).local_set(r);
                    f.block(|f| {
                        f.local_get(0);
                        if op != I::I32Eqz {
                            f.local_get(1);
                        }
                        f.op(op).br_if(0);
                        f.i32_const(0).local_set(r);
                    });
                    f.local_get(r);
                });
            mb.export_func("f", f);
            mb
        };
        let want = Value::I32(taken as i32);
        expect_both(&build, "f", &[Value::I32(a), Value::I32(b)], want);
        assert_fused(&build);
    }
}

#[test]
fn epoch_interrupt_is_identical_under_fusion() {
    use memwasm::wasm_core::{EpochClock, EpochConfig};
    // A hot loop made entirely of fusable patterns (imm add, compare +
    // br_if): the fused tier must still hit the epoch safepoint on every
    // executed word and trap with `Trap::Interrupted` exactly at the
    // deadline tick — fusion may change *how many* instructions retire,
    // never *whether* the watchdog fires.
    let build = || {
        let mut b = ModuleBuilder::new();
        let f = b.func(FuncType::new(vec![], vec![ValType::I32]), |f| {
            let i = f.local(ValType::I32);
            f.block(|f| {
                f.loop_(|f| {
                    f.local_get(i).i32_const(1).op(I::I32Add).local_set(i);
                    f.local_get(i).i32_const(-1).op(I::I32Eq).br_if(1);
                    f.br(0);
                });
            });
            f.local_get(i);
        });
        b.export_func("spin", f);
        b
    };
    for tier in [ExecTier::InPlace, ExecTier::Lowered] {
        let run = || {
            let module = Arc::new(build().build());
            let mut inst = Instance::instantiate(
                module,
                Imports::new(),
                InstanceConfig {
                    tier,
                    epoch: Some(EpochConfig {
                        clock: EpochClock::new(),
                        deadline: 7,
                        tick_instrs: 64,
                    }),
                    ..Default::default()
                },
            )
            .unwrap();
            let res = inst.invoke("spin", &[]);
            (res, inst.stats().instrs_retired, inst.epoch_clock().unwrap().now())
        };
        let (res, retired, epoch) = run();
        assert_eq!(res, Err(Trap::Interrupted), "{tier:?}");
        assert_eq!(epoch, 7, "{tier:?}: trap lands exactly at the deadline tick");
        let (res2, retired2, _) = run();
        assert_eq!(res2, Err(Trap::Interrupted), "{tier:?}");
        assert_eq!(retired, retired2, "{tier:?}: same deadline, same trap point");
    }
    assert_fused(build);
}
