//! The server under test: the shipped `serve` front end over a sharded
//! tier, listening on a loopback port inside this process.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bionav_cli::serve::{serve, ServeEngine};
use bionav_cli::{sharded_engine, Dataset, ReplBuilder};
use bionav_core::trace::now_ns;
use bionav_core::{CostParams, Engine, ShardedEngine};

/// Per-call times the timing builder records, in nanoseconds.
#[derive(Debug, Default)]
pub struct BuildTimes {
    /// `InvertedIndex::query` (the ESearch stand-in).
    pub esearch: Mutex<Vec<u64>>,
    /// `NavigationTree::build`.
    pub navtree: Mutex<Vec<u64>>,
}

/// The shipped tier: `sharded_engine`, tracing untouched.
pub fn shipped(dataset: &Arc<Dataset>, shards: usize, slots: usize) -> ServeEngine {
    sharded_engine(dataset, CostParams::default(), shards, slots)
}

/// The same tier with a tree builder that times its two calls. It does
/// exactly what `sharded_engine`'s builder does, so replies are identical.
pub fn timed(
    dataset: &Arc<Dataset>,
    shards: usize,
    slots: usize,
    times: &Arc<BuildTimes>,
) -> ServeEngine {
    ShardedEngine::new(shards, |_| {
        let data = Arc::clone(dataset);
        let times = Arc::clone(times);
        let builder: ReplBuilder = Box::new(move |query: &str| {
            let t0 = now_ns();
            let outcome = data.index.query(query);
            let t1 = now_ns();
            lock(&times.esearch).push(t1 - t0);
            if outcome.is_empty() {
                return None;
            }
            let tree = bionav_core::NavigationTree::build(
                &data.hierarchy,
                &data.store,
                &outcome.citations,
            );
            lock(&times.navtree).push(now_ns() - t1);
            Some(Arc::new(tree))
        });
        Engine::new(builder, CostParams::default(), slots)
    })
}

/// Locks a sample vector, tolerating a poisoned lock (samples are plain
/// data; a panicked pusher cannot leave them torn).
pub fn lock(m: &Mutex<Vec<u64>>) -> std::sync::MutexGuard<'_, Vec<u64>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

extern "C" {
    fn shutdown(fd: i32, how: i32) -> i32;
}

/// `SHUT_RDWR`.
const SHUT_RDWR: i32 = 2;

/// A running `serve` accept loop.
pub struct Server {
    /// The bound loopback address.
    pub addr: SocketAddr,
    /// The tier behind it.
    pub engine: Arc<ServeEngine>,
    listener: TcpListener,
    thread: JoinHandle<()>,
}

impl Server {
    /// Binds a free loopback port and runs `serve` on it in a thread.
    pub fn start(engine: ServeEngine, dataset: Arc<Dataset>) -> io::Result<Server> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let engine = Arc::new(engine);
        let accept = listener.try_clone()?;
        let tier = Arc::clone(&engine);
        let thread = std::thread::spawn(move || serve(accept, tier, dataset));
        Ok(Server {
            addr,
            engine,
            listener,
            thread,
        })
    }

    /// Stops accepting, waits for the accept loop to return, then waits
    /// (up to ten seconds) for every connection thread to hang up and drop
    /// its handle on the tier, so the tier and its dataset are freed
    /// before this returns and never overlap the next set-up in memory.
    pub fn stop(self) {
        // SAFETY: shutdown(2) on a socket this struct owns; shutting down a
        // listening socket makes the blocked accept() fail, which is how
        // `serve` returns.
        unsafe {
            shutdown(self.listener.as_raw_fd(), SHUT_RDWR);
        }
        let _ = self.thread.join();
        let give_up = now_ns() + 10_000_000_000;
        while Arc::strong_count(&self.engine) > 1 && now_ns() < give_up {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
