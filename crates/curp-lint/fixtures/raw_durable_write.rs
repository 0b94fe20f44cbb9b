//! Seeded violation fixture for rule `raw-durable-write`. The self-test
//! presents this file under a durable-module name (`backup.rs`), under
//! `frames.rs` (the writer's home), and under a non-durable name.

fn hand_rolled(dir: &std::path::Path) -> std::io::Result<()> {
    let tmp = dir.join("fence.tmp");
    let f = std::fs::File::create(&tmp)?; // line 7: flagged
    f.sync_data()?;
    std::fs::rename(&tmp, dir.join("fence")) // line 9: flagged
}

fn through_the_writer(path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    curp_storage::AtomicFile::replace(path, curp_storage::SyncLevel::DataAndDir, |f| {
        f.write_all(b"epoch") // fine: the one writer
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_tear_files() {
        std::fs::rename("a", "b").unwrap(); // test code: not flagged
    }
}
