//! The `nonstrict` binary: see [`nonstrict_cli::USAGE`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|c| c == "serve") {
        install_term_handler();
    }
    match nonstrict_cli::run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.code);
        }
    }
}

/// The write end of the termination self-pipe; -1 until the handler is
/// installed.
#[cfg(unix)]
static TERM_FD: std::sync::atomic::AtomicI32 = std::sync::atomic::AtomicI32::new(-1);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

#[cfg(unix)]
extern "C" fn on_term(_signum: i32) {
    // Only the first signal writes, so the pipe never fills and the
    // write never blocks.
    if nonstrict_cli::TERM.swap(true, std::sync::atomic::Ordering::SeqCst) {
        return;
    }
    let fd = TERM_FD.load(std::sync::atomic::Ordering::SeqCst);
    // SAFETY: `write(2)` is async-signal-safe, and the one-byte buffer
    // outlives the call.
    unsafe {
        write(fd, [1u8].as_ptr(), 1);
    }
}

/// Makes SIGTERM and SIGINT set [`nonstrict_cli::TERM`] and wake `serve`,
/// which blocks on the self-pipe, to drain gracefully. Raw `signal(2)`
/// and `write(2)` through the C ABI: the binary takes no libc
/// dependency, and the handler does nothing but an atomic swap and at
/// most one `write(2)`, both async-signal-safe.
#[cfg(unix)]
fn install_term_handler() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    TERM_FD.store(
        nonstrict_cli::term_pipe_fd(),
        std::sync::atomic::Ordering::SeqCst,
    );
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` is the C library's; `on_term` has the handler
    // ABI it expects.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}
