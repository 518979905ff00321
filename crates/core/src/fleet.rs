//! The fleet executor pool: one FIFO run queue served by a fixed set of
//! threads, shared by every submitted campaign. Campaigns submit tasks and
//! spawn no threads of their own, so the process runs exactly the pool's
//! threads no matter how many campaigns are in flight.
//!
//! Tasks run in submission order. A long-lived task — a campaign lane — runs
//! a slice of its work and re-enqueues its continuation at the back of the
//! queue ([`WorkerCtx::respawn`]), so the lanes of every campaign take turns
//! and none waits more than one pass of the queue.
//!
//! Dropping the pool drains every queued task before joining the threads, so
//! submitted campaigns always run to completion.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;

/// A unit of pool work. Tasks are one-shot; long-lived work (a campaign
/// lane) re-enqueues its continuation through the [`WorkerCtx`].
type Task = Box<dyn FnOnce(&WorkerCtx) + Send + 'static>;

/// Process-wide count of fleet threads ever spawned. The fleet smoke test
/// asserts on deltas of this counter to prove that running campaigns through
/// a service spawns no threads beyond the pool's own.
static POOL_THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total fleet threads spawned by this process so far (monotone).
pub fn pool_threads_spawned() -> usize {
    POOL_THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// The run queue and the shutdown flag, guarded together so a worker's
/// "nothing queued, not shutting down" check and its wait are one step.
struct Queue {
    tasks: VecDeque<Task>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl PoolShared {
    fn push(&self, task: Task) {
        self.queue
            .lock()
            .expect("fleet queue poisoned")
            .tasks
            .push_back(task);
        self.ready.notify_one();
    }

    /// The next task in submission order, blocking while the queue is empty;
    /// `None` once the pool is shutting down and the queue is drained.
    fn next_task(&self) -> Option<Task> {
        let mut queue = self.queue.lock().expect("fleet queue poisoned");
        loop {
            if let Some(task) = queue.tasks.pop_front() {
                return Some(task);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.ready.wait(queue).expect("fleet queue poisoned");
        }
    }
}

/// Handle a running task gets to its pool, to re-enqueue a continuation.
pub(crate) struct WorkerCtx {
    shared: Arc<PoolShared>,
}

impl WorkerCtx {
    /// Re-enqueue a continuation at the back of the queue.
    pub(crate) fn respawn(&self, task: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared.push(Box::new(task));
    }
}

/// The executor pool. See the module docs for the design.
pub(crate) struct FleetPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl FleetPool {
    /// Spawn a pool of `threads` workers (clamped to at least one).
    pub(crate) fn new(threads: usize) -> FleetPool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                POOL_THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
                thread::Builder::new()
                    .name(format!("fleet-worker-{index}"))
                    .spawn(move || Self::worker_loop(shared))
                    .expect("failed to spawn fleet worker thread")
            })
            .collect();
        FleetPool { shared, handles }
    }

    fn worker_loop(shared: Arc<PoolShared>) {
        let ctx = WorkerCtx { shared };
        while let Some(task) = ctx.shared.next_task() {
            // Keep the pool alive across a panicking task: the panic is
            // contained to the task (a campaign lane records its own panics
            // and fails its campaign before they reach this point).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(&ctx)));
        }
    }

    /// Number of worker threads in the pool.
    pub(crate) fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Submit a task at the back of the queue.
    pub(crate) fn spawn(&self, task: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.shared.push(Box::new(task));
    }
}

impl Drop for FleetPool {
    fn drop(&mut self) {
        // Every update under the queue lock is a single push, pop or flag
        // store, so a poisoned queue is still a valid one.
        self.shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Occupy the only thread of a one-thread `pool` until the returned
    /// sender is dropped or sent to, so later submissions queue up.
    fn hold(pool: &FleetPool) -> mpsc::Sender<()> {
        let (release, gate) = mpsc::channel::<()>();
        pool.spawn(move |_| {
            let _ = gate.recv();
        });
        release
    }

    #[test]
    fn pool_clamps_to_one_thread_and_counts_spawns() {
        let before = pool_threads_spawned();
        let pool = FleetPool::new(0);
        assert_eq!(pool.thread_count(), 1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move |_| tx.send(7).expect("receiver dropped"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        drop(pool);
        assert!(pool_threads_spawned() > before);
    }

    /// The queue is FIFO: with the single worker gated, queued tasks run in
    /// submission order.
    #[test]
    fn tasks_run_in_submission_order() {
        let pool = FleetPool::new(1);
        let release = hold(&pool);
        let (tx, rx) = mpsc::channel::<usize>();
        for n in 0..16 {
            let tx = tx.clone();
            pool.spawn(move |_| tx.send(n).expect("receiver dropped"));
        }
        drop(release);
        let order: Vec<usize> = (0..16).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    /// A respawned continuation goes to the back of the queue, so two
    /// self-respawning chains on one thread take turns.
    #[test]
    fn respawning_chains_take_turns() {
        fn link(tag: char, left: usize, tx: mpsc::Sender<char>, ctx: &WorkerCtx) {
            tx.send(tag).expect("receiver dropped");
            if left > 1 {
                ctx.respawn(move |ctx| link(tag, left - 1, tx, ctx));
            }
        }
        let pool = FleetPool::new(1);
        let release = hold(&pool);
        let (tx, rx) = mpsc::channel::<char>();
        for tag in ['a', 'b'] {
            let tx = tx.clone();
            pool.spawn(move |ctx| link(tag, 4, tx, ctx));
        }
        drop(release);
        let order: String = (0..8).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(order, "abababab");
    }

    /// A panicking task is contained: its thread goes on to serve the next
    /// task.
    #[test]
    fn a_panicking_task_leaves_its_thread_serving() {
        let pool = FleetPool::new(1);
        pool.spawn(|_| panic!("a pool task panicked"));
        let (tx, rx) = mpsc::channel();
        pool.spawn(move |_| tx.send(()).expect("receiver dropped"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(()));
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = FleetPool::new(2);
            for _ in 0..32 {
                let counter = Arc::clone(&counter);
                pool.spawn(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Dropping the pool must run everything already submitted.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }
}
