//! The Wasm microservice module generator.

use std::collections::HashMap;
use std::sync::RwLock;

use bytelite::Bytes;
use wasm_core::{FuncType, Instruction, ModuleBuilder, ValType};

/// Shape of the generated microservice.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MicroserviceConfig {
    /// Minimum linear memory pages (64 KiB each). wasi-libc's default
    /// layout for a small C program commits ~2.5 MB.
    pub memory_pages: u32,
    pub max_memory_pages: Option<u32>,
    /// Extra real functions (validated and, on eager engines, compiled),
    /// modeling linked-in libc code.
    pub code_padding_funcs: u32,
    /// Bounded startup-work loop iterations before the ready message.
    pub loop_iterations: i32,
    /// The readiness line written to stdout.
    pub ready_message: &'static str,
    /// Share of per-request work (parts-per-million) that is *optional* —
    /// skippable when the service layer asks for brownout/degraded mode
    /// (smaller response, no enrichment). Zero means no degraded mode; the
    /// image builder emits it as the brownout OCI annotation when set.
    /// Does not affect the generated module bytes, so existing images stay
    /// byte-identical.
    pub optional_work_ppm: u32,
}

impl Default for MicroserviceConfig {
    fn default() -> Self {
        MicroserviceConfig {
            memory_pages: 40, // 2.5 MiB
            max_memory_pages: Some(256),
            code_padding_funcs: 48,
            loop_iterations: 2_000,
            ready_message: "microservice ready\n",
            optional_work_ppm: 0,
        }
    }
}

impl MicroserviceConfig {
    /// A heavier application for the §IV-D/F "impact of different
    /// applications" discussion: more code, more memory, more work.
    pub fn compute_heavy() -> Self {
        MicroserviceConfig {
            memory_pages: 160, // 10 MiB
            max_memory_pages: Some(1024),
            code_padding_funcs: 160,
            loop_iterations: 20_000,
            ready_message: "compute service ready\n",
            optional_work_ppm: 0,
        }
    }

    /// A memory-hungry application (large arena touched at startup).
    pub fn memory_heavy() -> Self {
        MicroserviceConfig {
            memory_pages: 240, // 15 MiB
            max_memory_pages: Some(2048),
            code_padding_funcs: 48,
            loop_iterations: 4_000,
            ready_message: "cache service ready\n",
            optional_work_ppm: 0,
        }
    }

    /// The adversarial CPU spinner: a bounded burn sized by the attacker to
    /// sit just under the epoch deadline, so the watchdog never fires —
    /// until `cpu.max` scales the deadline down and the same burn overshoots
    /// it. Light on code padding: the spin is the workload.
    pub fn spinner(loop_iterations: i32) -> Self {
        MicroserviceConfig {
            memory_pages: 40,
            max_memory_pages: Some(256),
            code_padding_funcs: 8,
            loop_iterations,
            ready_message: "spinner ready\n",
            optional_work_ppm: 0,
        }
    }
}

/// Build the microservice module binary.
///
/// Layout: WASI imports, linear memory, the ready-message data segment, an
/// iovec, `code_padding_funcs` arithmetic helper functions (two of which the
/// startup loop actually calls), and `_start`:
///
/// ```text
/// _start:
///   acc = 0
///   for i in 0..loop_iterations { acc = mix(acc, i) }   // real work
///   store acc (defeats dead-code elimination)
///   fd_write(1, iovec, 1, nwritten)                     // ready message
/// ```
pub fn microservice_module(cfg: &MicroserviceConfig) -> Vec<u8> {
    microservice_module_bytes(cfg).to_vec()
}

/// Memoized form of [`microservice_module`]: generation is deterministic
/// (same config, same binary — see the `deterministic_bytes` test), so each
/// distinct config is assembled and encoded once per process and every
/// image built from it shares the same zero-copy [`Bytes`]. Experiment
/// grids deploy hundreds of containers from a handful of configs; without
/// the memo each deployment re-runs the module builder.
pub fn microservice_module_bytes(cfg: &MicroserviceConfig) -> Bytes {
    static MEMO: RwLock<Option<HashMap<MicroserviceConfig, Bytes>>> = RwLock::new(None);
    // Read-locked fast path: after warm-up every deployment hits here,
    // from any test thread, so this must not serialize.
    if let Some(bytes) = MEMO
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
        .and_then(|m| m.get(cfg))
    {
        return bytes.clone();
    }
    // Build outside the write lock (generation is deterministic, so a
    // racing duplicate build yields identical bytes and first-insert
    // wins — cheaper than holding the lock across assembly).
    let bytes = Bytes::from(build_microservice_module(cfg));
    let mut memo = MEMO.write().unwrap_or_else(std::sync::PoisonError::into_inner);
    memo.get_or_insert_with(HashMap::new).entry(cfg.clone()).or_insert(bytes).clone()
}

fn build_microservice_module(cfg: &MicroserviceConfig) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let fd_write = b.import_func(
        "wasi_snapshot_preview1",
        "fd_write",
        FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
    );
    let mem = b.memory(cfg.memory_pages, cfg.max_memory_pages);
    b.export_memory("memory", mem);

    let msg = cfg.ready_message.as_bytes().to_vec();
    let msg_len = msg.len() as i32;
    b.data(64, msg);
    // iovec { ptr: 64, len } at 16; nwritten at 32.
    let mut iov = Vec::new();
    iov.extend_from_slice(&64i32.to_le_bytes());
    iov.extend_from_slice(&msg_len.to_le_bytes());
    b.data(16, iov);

    let bin_sig = FuncType::new(vec![ValType::I32, ValType::I32], vec![ValType::I32]);

    // Padding functions: real, distinct arithmetic bodies.
    let mut padding = Vec::with_capacity(cfg.code_padding_funcs as usize);
    for i in 0..cfg.code_padding_funcs {
        let k = i as i32;
        let f = b.func(bin_sig.clone(), move |f| {
            // A body of ~0.5 KiB of distinct straight-line arithmetic per
            // function, with per-function constants so no two bodies are
            // identical (defeats any hash-consing shortcut a compiler tier
            // might take).
            f.local_get(0)
                .i32_const(k.wrapping_mul(2654435761u32 as i32) | 1)
                .op(Instruction::I32Mul);
            for round in 0..24 {
                let c = (k + round).wrapping_mul(40503) ^ 0x5bd1e995;
                f.local_get(1).i32_const(c).op(Instruction::I32Add).op(Instruction::I32Xor);
                f.i32_const(((k + round) % 13) + 1)
                    .op(Instruction::I32Rotl)
                    .local_get(0)
                    .op(Instruction::I32Add);
                f.local_get(1)
                    .i32_const((round % 7) + 1)
                    .op(Instruction::I32ShrU)
                    .op(Instruction::I32Xor);
            }
        });
        padding.push(f);
    }
    let mix_a = padding.first().copied();
    let mix_b = padding.get(1).copied();

    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        let acc = f.local(ValType::I32);
        let i = f.local(ValType::I32);
        f.i32_const(cfg.loop_iterations).local_set(i);
        f.block(|f| {
            f.loop_(|f| {
                f.local_get(i).op(Instruction::I32Eqz).br_if(1);
                // acc = mix(acc, i) — through real calls when padding exists.
                match (mix_a, mix_b) {
                    (Some(a), Some(bf)) => {
                        f.local_get(acc).local_get(i).call(a);
                        f.local_get(i).call(bf);
                        f.local_set(acc);
                    }
                    _ => {
                        f.local_get(acc)
                            .local_get(i)
                            .op(Instruction::I32Add)
                            .i32_const(2654435761u32 as i32)
                            .op(Instruction::I32Mul)
                            .local_set(acc);
                    }
                }
                f.local_get(i).i32_const(1).op(Instruction::I32Sub).local_set(i);
                f.br(0);
            });
        });
        // Store the accumulator so the loop is observable.
        f.i32_const(48).local_get(acc).i32_store(0);
        // fd_write(1, 16, 1, 32)
        f.i32_const(1).i32_const(16).i32_const(1).i32_const(32).call(fd_write).drop_();
    });
    b.export_func("_start", start);
    b.build_bytes()
}

/// The chaos sweep's hung-guest service: announces itself, then busy-waits
/// on `clock_time_get` until the simulated clock passes `ready_after_ns`
/// before printing its ready line.
///
/// The DES clock is frozen while a guest executes, so a start dispatched
/// before `ready_after_ns` spins forever — only the watchdog epoch budget
/// (armed by the kubelet from the liveness-probe window) parks it, leaving a
/// wedged container for the probes to discover. A restart dispatched after
/// `ready_after_ns` (the CrashLoopBackOff backoff has advanced the clock)
/// sees the deadline already passed and reaches ready promptly — which makes
/// the detect → interrupt → restart → converge contract fully deterministic.
pub fn hung_service_module(ready_after_ns: u64) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let fd_write = b.import_func(
        "wasi_snapshot_preview1",
        "fd_write",
        FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
    );
    let clock_time_get = b.import_func(
        "wasi_snapshot_preview1",
        "clock_time_get",
        FuncType::new(vec![ValType::I32, ValType::I64, ValType::I32], vec![ValType::I32]),
    );
    let mem = b.memory(40, Some(256));
    b.export_memory("memory", mem);

    // Layout: time at 8, iovecs at 16 (waiting) and 32 (ready), nwritten at
    // 48, message bytes from 64.
    let waiting = b"hung service: waiting\n".to_vec();
    let ready = b"hung service: ready\n".to_vec();
    let (waiting_ptr, ready_ptr) = (64i32, 128i32);
    let mut iov = Vec::new();
    iov.extend_from_slice(&waiting_ptr.to_le_bytes());
    iov.extend_from_slice(&(waiting.len() as i32).to_le_bytes());
    b.data(16, iov);
    let mut iov = Vec::new();
    iov.extend_from_slice(&ready_ptr.to_le_bytes());
    iov.extend_from_slice(&(ready.len() as i32).to_le_bytes());
    b.data(32, iov);
    b.data(waiting_ptr, waiting);
    b.data(ready_ptr, ready);

    let start = b.func(FuncType::new(vec![], vec![]), |f| {
        // fd_write(1, 16, 1, 48): announce before blocking.
        f.i32_const(1).i32_const(16).i32_const(1).i32_const(48).call(fd_write).drop_();
        f.block(|f| {
            f.loop_(|f| {
                // clock_time_get(realtime, 0, &time)
                f.i32_const(0).i64_const(0).i32_const(8).call(clock_time_get).drop_();
                f.i32_const(0)
                    .i64_load(8)
                    .i64_const(ready_after_ns as i64)
                    .op(Instruction::I64GeU)
                    .br_if(1);
                f.br(0);
            });
        });
        // fd_write(1, 32, 1, 48): the ready line.
        f.i32_const(1).i32_const(32).i32_const(1).i32_const(48).call(fd_write).drop_();
    });
    b.export_func("_start", start);
    b.build_bytes()
}

/// The memory-growth balloon: announces itself, then ratchets linear memory
/// with `memory.grow(step_pages)` up to `steps` times, stopping early if a
/// grow fails. The grown memory stays held when `_start` returns, so the
/// engine charges it all to the pod — `memory.max` on the attacker's cgroup
/// is the only thing between this and the node's free list.
pub fn balloon_module(step_pages: i32, steps: i32) -> Vec<u8> {
    let mut b = ModuleBuilder::new();
    let fd_write = b.import_func(
        "wasi_snapshot_preview1",
        "fd_write",
        FuncType::new(vec![ValType::I32; 4], vec![ValType::I32]),
    );
    // No declared max: growth is bounded by the step count, not the module.
    let mem = b.memory(16, None);
    b.export_memory("memory", mem);

    let msg = b"balloon ready\n".to_vec();
    let msg_len = msg.len() as i32;
    b.data(64, msg);
    let mut iov = Vec::new();
    iov.extend_from_slice(&64i32.to_le_bytes());
    iov.extend_from_slice(&msg_len.to_le_bytes());
    b.data(16, iov);

    let start = b.func(FuncType::new(vec![], vec![]), move |f| {
        // fd_write(1, 16, 1, 32): the ready line, before inflating.
        f.i32_const(1).i32_const(16).i32_const(1).i32_const(32).call(fd_write).drop_();
        let i = f.local(ValType::I32);
        f.i32_const(steps).local_set(i);
        f.block(|f| {
            f.loop_(|f| {
                f.local_get(i).op(Instruction::I32Eqz).br_if(1);
                // memory.grow(step) == -1 means the ratchet hit a wall.
                f.i32_const(step_pages).op(Instruction::MemoryGrow);
                f.i32_const(-1).op(Instruction::I32Eq).br_if(1);
                f.local_get(i).i32_const(1).op(Instruction::I32Sub).local_set(i);
                f.br(0);
            });
        });
    });
    b.export_func("_start", start);
    b.build_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wasm_core::{decode_module, validate_module, ExecTier, Imports, Instance, InstanceConfig};

    fn run(cfg: &MicroserviceConfig, tier: ExecTier) -> (Vec<u8>, wasm_core::ExecStats) {
        let bytes = microservice_module(cfg);
        let module = Arc::new(decode_module(bytes).unwrap());
        let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::<u8>::new()));
        let out2 = out.clone();
        let imports =
            Imports::new().func("wasi_snapshot_preview1", "fd_write", move |mem, args| {
                let m = mem.as_mut().expect("memory");
                let iovs = args[1].as_i32().unwrap() as u32;
                let base = m.load_u32(iovs, 0).unwrap();
                let len = m.load_u32(iovs, 4).unwrap();
                out2.borrow_mut().extend_from_slice(m.read_bytes(base, len).unwrap());
                Ok(vec![wasm_core::Value::I32(0)])
            });
        let mut inst = Instance::instantiate(
            module,
            imports,
            InstanceConfig { tier, fuel: Some(100_000_000), ..Default::default() },
        )
        .unwrap();
        inst.run_start().unwrap();
        let stats = inst.stats();
        let bytes = out.borrow().clone();
        drop(inst);
        (bytes, stats)
    }

    #[test]
    fn module_validates() {
        let bytes = microservice_module(&MicroserviceConfig::default());
        let module = decode_module(bytes).unwrap();
        validate_module(&module).unwrap();
        assert!(module.code_size() > 4_000, "padding produces real code");
        assert_eq!(module.memories[0].limits.min, 40);
    }

    #[test]
    fn runs_on_both_tiers_with_same_output() {
        let cfg = MicroserviceConfig::default();
        let (out_a, stats_a) = run(&cfg, ExecTier::InPlace);
        let (out_b, stats_b) = run(&cfg, ExecTier::Lowered);
        assert_eq!(out_a, b"microservice ready\n");
        assert_eq!(out_a, out_b);
        assert!(stats_a.instrs_retired > 10_000, "{stats_a:?}");
        // Same logical work on both tiers.
        assert_eq!(stats_a.host_calls, stats_b.host_calls);
    }

    #[test]
    fn heavier_configs_scale() {
        let small = microservice_module(&MicroserviceConfig::default());
        let heavy = microservice_module(&MicroserviceConfig::compute_heavy());
        assert!(heavy.len() > 2 * small.len());
        let (_, s_small) = run(&MicroserviceConfig::default(), ExecTier::InPlace);
        let (_, s_heavy) = run(&MicroserviceConfig::compute_heavy(), ExecTier::InPlace);
        assert!(s_heavy.instrs_retired > 5 * s_small.instrs_retired);
    }

    #[test]
    fn memoized_bytes_are_shared_and_correct() {
        let cfg = MicroserviceConfig::default();
        let a = microservice_module_bytes(&cfg);
        let b = microservice_module_bytes(&cfg);
        assert_eq!(a.as_ptr(), b.as_ptr(), "same config must share one allocation");
        assert_eq!(&a[..], &microservice_module(&cfg)[..]);
        let heavy = microservice_module_bytes(&MicroserviceConfig::compute_heavy());
        assert_ne!(&a[..], &heavy[..]);
    }

    #[test]
    fn balloon_grows_and_holds() {
        let bytes = balloon_module(16, 8); // 16 + 128 pages = 9 MiB
        let module = Arc::new(decode_module(bytes).unwrap());
        validate_module(&module).unwrap();
        let imports = Imports::new().func("wasi_snapshot_preview1", "fd_write", |_m, _a| {
            Ok(vec![wasm_core::Value::I32(0)])
        });
        let mut inst = Instance::instantiate(
            module,
            imports,
            InstanceConfig {
                tier: ExecTier::InPlace,
                fuel: Some(100_000_000),
                ..Default::default()
            },
        )
        .unwrap();
        inst.run_start().unwrap();
        let mem = inst.memory().expect("exported memory");
        assert_eq!(mem.size_bytes(), (16 + 16 * 8) * 64 * 1024, "ratcheted to full size");
    }

    #[test]
    fn deterministic_bytes() {
        let a = microservice_module(&MicroserviceConfig::default());
        let b = microservice_module(&MicroserviceConfig::default());
        assert_eq!(a, b, "same config, same binary (content-addressed caches rely on it)");
    }
}
