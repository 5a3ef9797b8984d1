//! The command-line refusal contract of `pif_daemon::cli`, checked end to
//! end on a binary. Each binary crate's refusal test includes this file.

use std::ffi::OsStr;
use std::fmt::Debug;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A refusal answers at once; a run still going after this long has
/// started work.
const DEADLINE: Duration = Duration::from_secs(20);

/// Runs `exe` on `args`, with `env` set, in an empty scratch directory,
/// and asserts that it refuses the command line: it exits before the
/// deadline with a non-zero status other than a panic's 101, names
/// `named` on stderr with no `panicked` there, prints nothing on stdout
/// and writes no file.
pub fn assert_refused(
    exe: &str,
    args: &[impl AsRef<OsStr> + Debug],
    env: &[(&str, &str)],
    named: &str,
) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("cli-refusal-{}-{run}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut child = Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let start = Instant::now();
    while child.try_wait().unwrap().is_none() {
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still runs after {DEADLINE:?}: it started work instead of refusing");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let written: Vec<_> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    std::fs::remove_dir_all(&dir).unwrap();
    let code = out.status.code();
    assert!(code.is_some_and(|c| c != 0 && c != 101), "{args:?} exited {code:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?} does not name {named:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "{args:?} started work: {stdout}");
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
}
