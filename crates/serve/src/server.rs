//! Transports and the worker pool: stdin/stdout, Unix socket, TCP.
//!
//! All three transports read request lines in one loop and funnel them
//! through one [`submit`] path: try to enqueue on the bounded
//! [`JobQueue`], reject immediately with `overloaded` when full,
//! otherwise block for the worker's response. Service workers pull from
//! the queue and execute on the shared [`ServeCore`]; connection threads
//! only move bytes. The two socket transports share one accept loop,
//! which polls, and read with a short timeout so every thread notices
//! the drain flag within a fraction of a second —
//! graceful shutdown is: flip the flag (the `shutdown` op does this),
//! stop accepting, close the queue, let workers drain admitted jobs,
//! join everything.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use pim_trace::json;

use crate::core::{ServeConfig, ServeCore};
use crate::error::ServeError;
use crate::proto;
use crate::queue::{JobQueue, PushError};

/// How long blocking socket reads wait before re-checking the drain
/// flag.
const POLL: Duration = Duration::from_millis(100);

/// Accept-loop poll interval. Much shorter than [`POLL`]: this sleep is
/// the worst-case latency a fresh connection's first request pays, so
/// it must stay well under any latency target while remaining cheap to
/// spin (a no-op accept is one syscall).
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// One admitted request: the raw line and where to send the response.
pub struct Job {
    line: String,
    reply: mpsc::SyncSender<String>,
}

/// Best-effort id extraction for responses built before a request is
/// admitted (rejections must still correlate).
fn peek_id(line: &str) -> Option<u64> {
    json::parse(line)
        .ok()?
        .get("id")
        .and_then(json::Value::as_u64)
}

/// Admission control + execution for one request line: returns the
/// response line, always (rejections are responses too).
pub fn submit(core: &ServeCore, queue: &JobQueue<Job>, line: String) -> String {
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job { line, reply: tx };
    match queue.try_push(job) {
        Ok(()) => rx.recv().unwrap_or_else(|_| {
            // Workers are gone (drain raced the admit); tell the client.
            proto::error_response(None, &ServeError::ShuttingDown)
        }),
        Err((job, PushError::Full { depth })) => {
            core.stats().record_overloaded();
            proto::error_response(
                peek_id(&job.line),
                &ServeError::Overloaded {
                    queue_depth: depth,
                    capacity: queue.capacity(),
                },
            )
        }
        Err((job, PushError::Closed)) => {
            proto::error_response(peek_id(&job.line), &ServeError::ShuttingDown)
        }
    }
}

fn worker_loop(core: Arc<ServeCore>, queue: Arc<JobQueue<Job>>) {
    while let Some(job) = queue.pop() {
        let view = (queue.depth(), queue.capacity());
        let response = core.handle_line(&job.line, view);
        // A client that hung up before its response is not an error.
        let _ = job.reply.send(response);
    }
}

fn spawn_workers(
    core: &Arc<ServeCore>,
    queue: &Arc<JobQueue<Job>>,
    count: usize,
) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|i| {
            let core = Arc::clone(core);
            let queue = Arc::clone(queue);
            std::thread::Builder::new()
                .name(format!("pim-serve-worker-{i}"))
                .spawn(move || worker_loop(core, queue))
                .expect("spawn worker thread")
        })
        .collect()
}

/// Serve one duplex byte stream: read request lines, write response
/// lines. Returns on EOF, on an unrecoverable stream error, or once the
/// drain flag is up: the flag is checked before every read, so a
/// `shutdown` response is the last line written, and socket reads time
/// out every [`POLL`] to re-check it. Lines are read as bytes: one that
/// is not UTF-8 gets a `bad_request` response and the stream keeps
/// serving.
fn serve_stream<R: io::Read, W: Write>(
    core: &ServeCore,
    queue: &JobQueue<Job>,
    reader: R,
    mut writer: W,
) {
    let mut reader = BufReader::new(reader);
    let mut buf = Vec::new();
    while !core.is_shutting_down() {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let response = match String::from_utf8(std::mem::take(&mut buf)) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => submit(core, queue, line),
                    Err(e) => {
                        core.stats().record_error();
                        let id = peek_id(&String::from_utf8_lossy(e.as_bytes()));
                        let err = ServeError::BadRequest("request line is not UTF-8".into());
                        proto::error_response(id, &err)
                    }
                };
                if writer
                    .write_all(response.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    return; // client hung up
                }
            }
            // Read timeout: partial bytes (if any) stay in `buf` and the
            // next read_until keeps appending.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Run the daemon over stdin/stdout, blocking until EOF or a `shutdown`
/// request, then drain. This is the transport the CI smoke uses: pipe
/// requests in, read responses out, no socket lifecycle to manage.
pub fn serve_stdio(config: &ServeConfig) {
    let core = Arc::new(ServeCore::new(config));
    let queue = Arc::new(JobQueue::new(config.queue_capacity));
    let workers = spawn_workers(&core, &queue, config.workers);
    serve_stream(&core, &queue, io::stdin().lock(), io::stdout().lock());
    core.begin_shutdown();
    queue.close();
    for w in workers {
        let _ = w.join();
    }
}

enum Endpoint {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// A bound listening socket of either transport.
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection, configured for its connection thread:
    /// blocking reads that time out every [`POLL`]; TCP also turns off
    /// Nagle's algorithm.
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_read_timeout(Some(POLL));
                Stream::Unix(stream)
            }
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(POLL));
                let _ = stream.set_nodelay(true);
                Stream::Tcp(stream)
            }
        })
    }
}

/// A connected socket of either transport: the daemon's connection
/// threads and [`Client`] both speak through it.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

/// A running socket daemon (Unix or TCP). Dropping without
/// [`Server::wait`]/[`Server::shutdown`] aborts the drain (threads are
/// detached); call one of them.
pub struct Server {
    core: Arc<ServeCore>,
    queue: Arc<JobQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    endpoint: Endpoint,
}

/// Accept connections until the drain flag is up, one thread per
/// connection, then join them all. The listener is nonblocking, so the
/// loop polls every [`ACCEPT_POLL`]; every pass joins the connection
/// threads that have already finished.
fn accept_loop(core: Arc<ServeCore>, queue: Arc<JobQueue<Job>>, listener: Listener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !core.is_shutting_down() {
        reap_finished(&mut conns);
        match listener.accept() {
            Ok(stream) => {
                let core = Arc::clone(&core);
                let queue = Arc::clone(&queue);
                conns.push(
                    std::thread::Builder::new()
                        .name("pim-serve-conn".into())
                        .spawn(move || {
                            let writer = stream.try_clone().expect("clone socket stream");
                            serve_stream(&core, &queue, stream, writer);
                        })
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for c in conns {
        let _ = c.join();
    }
}

/// Join the finished threads of `conns` and keep the running ones. An
/// exited thread's stack stays mapped until it is joined, so a daemon that
/// held every handle until shutdown would grow by one mapping per
/// connection it ever served.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < conns.len() {
        if conns[i].is_finished() {
            let _ = conns.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

impl Server {
    /// Bind a Unix-socket daemon at `path` (an existing socket file is
    /// replaced) and start accepting.
    pub fn start_unix(config: &ServeConfig, path: &Path) -> io::Result<Server> {
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let endpoint = Endpoint::Unix(path.to_path_buf());
        Ok(Server::start(config, Listener::Unix(listener), endpoint))
    }

    /// Bind a TCP daemon at `addr` (`127.0.0.1:0` picks a free port —
    /// read it back via [`Server::tcp_addr`]) and start accepting.
    pub fn start_tcp(config: &ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Ok(Server::start(config, Listener::Tcp(listener), endpoint))
    }

    /// Spawn the workers and the accept thread over a bound, nonblocking
    /// listener.
    fn start(config: &ServeConfig, listener: Listener, endpoint: Endpoint) -> Server {
        let core = Arc::new(ServeCore::new(config));
        let queue = Arc::new(JobQueue::new(config.queue_capacity));
        let workers = spawn_workers(&core, &queue, config.workers);
        let accept = {
            let core = Arc::clone(&core);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("pim-serve-accept".into())
                .spawn(move || accept_loop(core, queue, listener))
                .expect("spawn accept thread")
        };
        Server {
            core,
            queue,
            workers,
            accept: Some(accept),
            endpoint,
        }
    }

    /// Shared daemon state (tests inspect counters through this).
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// The bound TCP address, when this is a TCP server.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self.endpoint {
            Endpoint::Tcp(addr) => Some(addr),
            Endpoint::Unix(_) => None,
        }
    }

    /// Block until a `shutdown` request flips the drain flag, then
    /// drain and join everything.
    pub fn wait(mut self) {
        while !self.core.is_shutting_down() {
            std::thread::sleep(POLL);
        }
        self.drain();
    }

    /// Initiate shutdown from the owning side (equivalent to receiving
    /// a `shutdown` request) and drain.
    pub fn shutdown(mut self) {
        self.core.begin_shutdown();
        self.drain();
    }

    fn drain(&mut self) {
        self.core.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A blocking line-protocol client for tests, the benchmark load
/// generator and simple scripting.
pub struct Client {
    reader: BufReader<Stream>,
}

impl Client {
    /// Connect to a Unix-socket daemon.
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(Stream::Unix(UnixStream::connect(path)?)),
        })
    }

    /// Connect to a TCP daemon.
    pub fn connect_tcp(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(Stream::Tcp(stream)),
        })
    }

    /// Send one request line and block for its response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        if !line.ends_with('\n') {
            out.push(b'\n');
        }
        self.reader.get_mut().write_all(&out)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_bytes: 16 << 20,
            pool_threads: 0,
        }
    }

    #[test]
    fn tcp_round_trip_and_graceful_shutdown() {
        let server = Server::start_tcp(&config(), "127.0.0.1:0").expect("bind");
        let addr = server.tcp_addr().expect("tcp endpoint");
        let mut client = Client::connect_tcp(addr).expect("connect");
        let pong = client.request(r#"{"id":1,"op":"ping"}"#).expect("ping");
        assert!(pong.contains("\"pong\":true"), "{pong}");
        let stats = client.request(r#"{"op":"stats"}"#).expect("stats");
        assert!(pim_trace::json::parse(&stats).is_ok(), "{stats}");
        let bye = client.request(r#"{"op":"shutdown"}"#).expect("shutdown");
        assert!(bye.contains("\"draining\":true"), "{bye}");
        server.wait(); // must return, not hang
    }

    #[test]
    fn unix_round_trip() {
        let path = std::env::temp_dir().join(format!("pim-serve-test-{}.sock", std::process::id()));
        let server = Server::start_unix(&config(), &path).expect("bind");
        let mut client = Client::connect_unix(&path).expect("connect");
        let pong = client.request(r#"{"op":"ping"}"#).expect("ping");
        assert!(pong.contains("\"pong\":true"), "{pong}");
        drop(client);
        server.shutdown();
        assert!(!path.exists(), "socket file cleaned up");
    }

    #[test]
    fn submit_rejects_when_queue_full() {
        // No workers draining: fill the queue by hand, then submit.
        let core = ServeCore::new(&config());
        let queue: JobQueue<Job> = JobQueue::new(2);
        let (tx, _rx) = mpsc::sync_channel(1);
        for _ in 0..2 {
            let admitted = queue.try_push(Job {
                line: String::new(),
                reply: tx.clone(),
            });
            assert!(admitted.is_ok());
        }
        let resp = submit(&core, &queue, r#"{"op":"ping"}"#.to_string());
        assert!(resp.contains("\"error\":\"overloaded\""), "{resp}");
        assert!(resp.contains("\"queue_depth\":2"), "{resp}");
        let v = pim_trace::json::parse(&resp).unwrap();
        assert_eq!(
            v.get("capacity").and_then(pim_trace::json::Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn reap_joins_finished_threads_only() {
        let (release, wait) = mpsc::channel::<()>();
        let mut conns = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(move || {
                let _ = wait.recv();
            }),
            std::thread::spawn(|| {}),
        ];
        while !(conns[0].is_finished() && conns[2].is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut conns);
        assert_eq!(conns.len(), 1, "the running thread is kept");
        assert!(!conns[0].is_finished());
        release.send(()).unwrap();
        while !conns[0].is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap_finished(&mut conns);
        assert!(conns.is_empty());
    }
}
