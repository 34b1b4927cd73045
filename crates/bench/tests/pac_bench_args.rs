//! `pac-bench` refuses what it does not understand: an unknown flag, a
//! mode it no longer has, a missing `--out`, or `--out` without a path must
//! exit non-zero before anything runs — and above all before it writes (or
//! overwrites) its JSON trajectory in the working directory.

use std::process::Command;

fn rejected(args: &[&str]) {
    let dir = std::env::temp_dir().join(format!(
        "pac-bench-args-{}-{}",
        std::process::id(),
        args.join("_").replace('-', "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_pac-bench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn pac-bench");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("read temp dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "pac-bench {args:?} exited 0");
    assert!(
        written.is_empty(),
        "pac-bench {args:?} wrote {written:?} before failing"
    );
    assert!(
        stderr.contains("usage: pac-bench"),
        "pac-bench {args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn the_removed_multiworld_mode_fails_without_writing() {
    rejected(&["--multiworld"]);
    rejected(&["--multiworld", "--quick", "--tenants", "3"]);
}

#[test]
fn unknown_or_incomplete_arguments_fail_without_writing() {
    rejected(&["--quik"]);
    rejected(&["--quick", "--out"]);
    rejected(&["--out", "--quick"]);
    rejected(&["extra"]);
    rejected(&[]);
    rejected(&["--quick"]);
}
