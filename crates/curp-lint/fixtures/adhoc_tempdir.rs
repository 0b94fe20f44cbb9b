//! Seeded violation fixture for rule `adhoc-tempdir`. The self-test
//! presents this file as library source, as an integration test, and as
//! `tempdir.rs` (the one file allowed to ask for the OS temp root).

fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join("curp-adhoc") // line 6: flagged
}

#[cfg(test)]
mod tests {
    #[test]
    fn named_by_data() {
        let p = std::env::temp_dir().join(format!("curp-{}", 7)); // line 13: flagged in tests too
        let _ = p;
    }

    #[test]
    fn guarded() {
        let dir = curp_storage::TempDir::new("curp-ok").unwrap(); // fine
        let _ = dir.path().join("temp_dir"); // a string, not a call
    }
}
