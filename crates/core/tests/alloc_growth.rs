//! Roster memory smoke test: a large virtualized population must run in
//! O(cohort) heap, and steady-state rounds must not grow the heap.
//!
//! A counting `#[global_allocator]` tracks net live bytes (allocations minus
//! frees). After the first rounds warm the session up (records vector,
//! evaluation scratch, codec buffers), every later round must land within a
//! small fixed slack of the previous one — the round loop reuses its buffers
//! instead of accumulating per-round garbage, so the only durable growth is
//! the appended `RoundRecord` itself.
//!
//! The counters are per thread and count only while armed, so tests running
//! in parallel under the default harness never see each other's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fl_core::{Algorithm, ExperimentConfig, FederatedSession};

thread_local! {
    /// Whether this thread's allocations are being counted.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Net live heap bytes this thread allocated while armed.
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
    /// Every `alloc` call this thread made while armed — allocation
    /// *traffic*, not just net growth, so buffers that are allocated and
    /// immediately freed still show up.
    static TOTAL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Apply `f` to this thread's counters if they are armed. The thread-locals
/// are const-initialised `Cell`s without destructors, so touching them never
/// allocates (no recursion into the allocator) and never fails mid-teardown.
fn count(f: impl FnOnce()) {
    if ARMED.with(Cell::get) {
        f();
    }
}

/// Run `f` with this thread's counters zeroed and armed; returns its result
/// with the net bytes and allocation count it caused on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, isize, usize) {
    NET_BYTES.with(|c| c.set(0));
    TOTAL_ALLOCS.with(|c| c.set(0));
    ARMED.with(|c| c.set(true));
    let out = f();
    ARMED.with(|c| c.set(false));
    (out, NET_BYTES.with(Cell::get), TOTAL_ALLOCS.with(Cell::get))
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counters are the only
// added behaviour. `realloc` is left on the default implementation, which
// routes through `alloc`/`dealloc` and therefore keeps the counters exact.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(|| {
                NET_BYTES.with(|c| c.set(c.get() + layout.size() as isize));
                TOTAL_ALLOCS.with(|c| c.set(c.get() + 1));
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(|| NET_BYTES.with(|c| c.set(c.get() - layout.size() as isize)));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rounds_do_not_grow_the_heap() {
    // 100k virtual clients, 32-client cohorts, stateless Top-K: the roster
    // must instantiate only the touched clients, and the round loop must not
    // leak scratch. Single-threaded so worker-pool bring-up cannot masquerade
    // as round-loop growth.
    let mut config = ExperimentConfig::quick(Algorithm::TopK);
    config.num_clients = 100_000;
    config.participation = 32.0 / 100_000.0;
    config.rounds = 8;
    config.max_threads = 1;

    let mut net_after_round: Vec<isize> = Vec::with_capacity(config.rounds);
    let session = FederatedSession::from_config(&config);
    let (result, _, _) = counted(|| {
        session.run_with(|_record| {
            net_after_round.push(NET_BYTES.with(Cell::get));
        })
    });
    assert_eq!(net_after_round.len(), 8);
    assert!(result.final_accuracy.is_finite());

    // Rounds 0–2 may allocate durable state (records vector, lazily built
    // evaluation scratch, codec buffer pools). From round 3 on, each round
    // may add at most the round record plus a little vector-doubling slack —
    // far below the multi-hundred-kB per-round traffic a leak of even one
    // update buffer would show up as.
    const PER_ROUND_SLACK: isize = 32 * 1024;
    for w in net_after_round[3..].windows(2) {
        let growth = w[1] - w[0];
        assert!(
            growth <= PER_ROUND_SLACK,
            "steady-state round grew the heap by {growth} bytes \
             (net per round: {net_after_round:?})"
        );
    }
}

#[test]
fn steady_state_training_batches_allocate_nothing() {
    // The allocation-free hot path, asserted at its strongest: once the
    // workspace and batch buffers are warm, a training batch must perform
    // ZERO heap allocations — not merely zero net growth. This replicates
    // `ClientState::local_update`'s inner loop through the same public APIs.
    use fl_data::Dataset;
    use fl_nn::{mlp, Sgd, SoftmaxCrossEntropy, Workspace};
    use fl_tensor::rng::{Rng, Xoshiro256};
    use fl_tensor::Tensor;

    let mut rng = Xoshiro256::new(11);
    let feature_dim = 32;
    let classes = 4;
    let n = 64;
    let batch = 16; // divides n: every batch has the same shape
    let mut features = Vec::with_capacity(n * feature_dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        labels.push(i % classes);
        for _ in 0..feature_dim {
            features.push(rng.next_f32() - 0.5);
        }
    }
    let dataset = Dataset::new(features, labels, feature_dim, classes);

    let mut model = mlp(feature_dim, &[24, 16], classes, &mut rng);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut loss_fn = SoftmaxCrossEntropy::new();
    let mut ws = Workspace::new();
    let mut grad = Tensor::empty();
    let mut x = Tensor::empty();
    let mut y = Vec::new();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);

    let mut step =
        |s: usize, e: usize, order: &[usize], model: &mut fl_nn::Sequential, ws: &mut Workspace| {
            dataset.gather_batch_into(&order[s..e], &mut x, &mut y);
            model.zero_grad();
            let logits = model.forward_in(&x, ws);
            loss_fn.forward(logits, &y);
            loss_fn.backward_in(&mut grad);
            model.backward_in(&grad, ws);
            opt.step(model);
        };

    // Warm-up: two full batches grow every buffer to steady-state size
    // (including the momentum velocity allocated on the first step).
    step(0, batch, &order, &mut model, &mut ws);
    step(batch, 2 * batch, &order, &mut model, &mut ws);

    let ((), _, allocs) = counted(|| {
        for _round in 0..5 {
            for b in 0..n / batch {
                step(b * batch, (b + 1) * batch, &order, &mut model, &mut ws);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state training batches performed {allocs} heap allocations"
    );
}
