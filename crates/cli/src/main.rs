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

extern "C" fn on_term(_signum: i32) {
    nonstrict_cli::TERM.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Makes SIGTERM and SIGINT flip [`nonstrict_cli::TERM`], which `serve`
/// polls to drain gracefully. Raw `signal(2)` through the C ABI: the
/// binary takes no libc dependency, and the handler only stores to an
/// atomic, which is async-signal-safe.
#[cfg(unix)]
fn install_term_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    // SAFETY: `signal` is the C library's; `on_term` has the handler
    // ABI it expects and does nothing but an atomic store.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_term_handler() {}
