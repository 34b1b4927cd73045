//! Worker spawners: in-process threads (tests), forked processes
//! (`repro --distributed`), or simulated-transport threads
//! ([`crate::simnet::SimSpawner`]).

use crate::transport::{Tcp, Transport};
use crate::worker::{run_worker_on, Buggify, RunMode};
use std::process::{Child, Command};
use std::time::{Duration, Instant};

/// How the coordinator brings a world of workers into existence. The
/// coordinator is generic over this, so the *same* recovery loop respawns TCP
/// thread workers, forked processes, and simulated workers.
pub trait Spawn {
    /// Transport the spawned workers (and the coordinator) communicate over.
    type T: Transport;

    /// The transport instance the coordinator should bind its rendezvous
    /// listener on. Workers must be able to reach ports bound here.
    fn transport(&self) -> Self::T;

    /// Launches `world` workers pointed at the coordinator's rendezvous
    /// port.
    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld>;
}

/// The production spawners (both over TCP).
#[derive(Debug, Clone)]
pub enum Spawner {
    /// `std::thread` workers inside this process, talking to the
    /// coordinator over real loopback TCP. Used by in-crate tests: same
    /// sockets, same protocol, no process management.
    Threads,
    /// Fork `exe args... <coordinator-addr> <slot>` per worker — in
    /// practice `repro --net-worker ADDR SLOT`, self-executed.
    Process {
        /// Worker executable.
        exe: std::path::PathBuf,
        /// Arguments placed before the coordinator address.
        args: Vec<String>,
    },
}

impl Spawn for Spawner {
    type T = Tcp;

    fn transport(&self) -> Tcp {
        Tcp::LOOPBACK
    }

    fn launch(&self, coord_port: u16, world: usize) -> std::io::Result<SpawnedWorld> {
        let mut out = SpawnedWorld::default();
        for slot in 0..world as u32 {
            match self {
                Spawner::Threads => {
                    out.threads.push(std::thread::spawn(move || {
                        // Worker-side errors surface to the coordinator as
                        // EOFs / Fault messages; nothing to do here.
                        let _ = run_worker_on(
                            &Tcp::LOOPBACK,
                            coord_port,
                            slot,
                            RunMode::Thread,
                            &Buggify::default(),
                        );
                    }));
                }
                Spawner::Process { exe, args } => {
                    let child = Command::new(exe)
                        .args(args)
                        .arg(format!("127.0.0.1:{coord_port}"))
                        .arg(slot.to_string())
                        .spawn()?;
                    out.procs.push(child);
                }
            }
        }
        Ok(out)
    }
}

/// Handles to a spawned world, for teardown.
#[derive(Debug, Default)]
pub struct SpawnedWorld {
    pub(crate) threads: Vec<std::thread::JoinHandle<()>>,
    pub(crate) procs: Vec<Child>,
    /// When the world runs on the simulated transport, joins must be
    /// wrapped in `block_external` so the virtual clock keeps advancing
    /// while the coordinator thread waits on real `JoinHandle`s.
    pub(crate) sim: Option<crate::simnet::SimNet>,
}

impl SpawnedWorld {
    /// True when no worker handles remain to reap.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty() && self.procs.is_empty()
    }

    /// Folds another spawned world into this one so a single `shutdown`
    /// reaps both — the elastic join path launches a lone joiner before
    /// the replacement world it will belong to, then merges the handles.
    pub fn merge(&mut self, mut other: SpawnedWorld) {
        self.threads.append(&mut other.threads);
        self.procs.append(&mut other.procs);
        if self.sim.is_none() {
            self.sim = other.sim.take();
        }
    }

    /// Reaps the world: joins threads, waits briefly for processes to exit
    /// on their own (they do, once their control connection drops), then
    /// kills stragglers. Must be called after the coordinator has dropped
    /// or shut down every control connection.
    pub fn shutdown(mut self) {
        let threads = std::mem::take(&mut self.threads);
        let join_all = move || {
            for t in threads {
                let _ = t.join();
            }
        };
        match self.sim.take() {
            Some(net) => net.block_external(join_all),
            None => join_all(),
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        for child in self.procs.iter_mut() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }
}
