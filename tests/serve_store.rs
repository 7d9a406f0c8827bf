//! Crash-safety contracts of the on-disk snapshot store, end to end
//! through the daemon: every enumerated crash point between "start
//! persist" and "manifest committed" recovers to a whole epoch (old or
//! fully-committed new, never a blend, never a wedge); manifest corpora
//! with torn tails, bit flips, duplicate epochs, and missing payloads
//! recover to the newest valid epoch; and the `Rollback` wire op
//! re-installs retained epochs durably.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dp_substring_counting::prelude::*;
use dp_substring_counting::serve::store::{MANIFEST_HEADER, MANIFEST_NAME, MANIFEST_RECORD_LEN};
use dp_substring_counting::serve::{ClientError, FaultPlan, FaultyIo, SnapshotStore, StoreIo};
use dp_substring_counting::strkit::trie::Trie;

/// A synthetic synopsis over a fixed key set whose every count is
/// `base + i` — two of these with different `base` disagree on *every*
/// stored node, which makes the no-blend assertions sharp.
fn synthetic(base: f64) -> FrozenSynopsis {
    let mut trie: Trie<f64> = Trie::new(base);
    let keys: Vec<Vec<u8>> = (0..50u8)
        .map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)])
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let node = trie.insert_path(key, |_| 0.0);
        *trie.value_mut(node) = base + i as f64;
    }
    PrivateCountStructure::new(
        trie,
        CountMode::Substring,
        PrivacyParams::pure(2.0),
        3.0,
        4.0,
        50,
        3,
    )
    .freeze()
}

fn probe_refs(probe: &[Vec<u8>]) -> Vec<&[u8]> {
    probe.iter().map(|p| p.as_slice()).collect()
}

fn probe_set() -> Vec<Vec<u8>> {
    (0..50u8).map(|i| vec![b'a' + (i % 4), b'a' + ((i / 4) % 4), b'a' + ((i / 16) % 4)]).collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("dpsc-store-e2e-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A `StoreIo` delegating to a shared `FaultyIo`, so tests keep a handle
/// to the op counter while the store owns the box.
#[derive(Debug)]
struct SharedIo(Arc<FaultyIo>);

impl StoreIo for SharedIo {
    fn write_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
        self.0.write_file(p, b)
    }
    fn append_file(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
        self.0.append_file(p, b)
    }
    fn sync_file(&self, p: &Path) -> std::io::Result<()> {
        self.0.sync_file(p)
    }
    fn sync_dir(&self, p: &Path) -> std::io::Result<()> {
        self.0.sync_dir(p)
    }
    fn rename(&self, a: &Path, b: &Path) -> std::io::Result<()> {
        self.0.rename(a, b)
    }
    fn remove_file(&self, p: &Path) -> std::io::Result<()> {
        self.0.remove_file(p)
    }
    fn read_file(&self, p: &Path) -> std::io::Result<Vec<u8>> {
        self.0.read_file(p)
    }
    fn list_dir(&self, p: &Path) -> std::io::Result<Vec<PathBuf>> {
        self.0.list_dir(p)
    }
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_NAME)
}

/// The tentpole acceptance test: a clean store serves the OLD epoch;
/// then a `LoadSnapshot` of the NEW bytes is killed at every injected
/// fault point of the persist protocol (partial payload write, pre-
/// rename, pre-manifest-append, partial manifest record, post-append
/// pre-fsync). After each simulated crash the daemon restarts on the
/// same directory and must serve answers bit-identical to either the old
/// epoch or the fully-committed new one — never a mix, never a panic,
/// never a wedge.
#[test]
fn enumerated_crash_points_recover_old_or_new() {
    let old_gen = synthetic(1_000.0);
    let new_gen = synthetic(9_000.0);
    let old_bytes = old_gen.to_bytes();
    let new_bytes = new_gen.to_bytes();
    let probe = probe_set();
    let refs = probe_refs(&probe);
    let expect_old: Vec<u64> = old_gen.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    let expect_new: Vec<u64> = new_gen.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    assert_ne!(expect_old, expect_new);

    // Counting mode pins the fault schedule: a follow-up persist into an
    // existing store is exactly 6 mutating ops (write tmp, fsync tmp,
    // rename, fsync dir, append manifest record, fsync manifest). If the
    // protocol grows an op, this assertion forces the enumeration below
    // to grow with it.
    const PERSIST_OPS: usize = 6;
    {
        let dir = scratch_dir("count");
        let counter = Arc::new(FaultyIo::new(FaultPlan::counting()));
        let store =
            SnapshotStore::open_with(&dir, 4, Box::new(SharedIo(Arc::clone(&counter)))).unwrap();
        store.persist(0, &old_bytes).unwrap();
        let after_first = counter.ops_executed();
        store.persist(0, &new_bytes).unwrap();
        assert_eq!(
            counter.ops_executed() - after_first,
            PERSIST_OPS,
            "persist op count changed; extend the crash enumeration"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Every crash point, plus mid-write partials at the two write ops:
    // op 0 = payload temp write, op 2 = rename, op 4 = manifest append.
    let plans: Vec<(FaultPlan, bool)> = vec![
        (FaultPlan::crash_at(0), true),            // nothing written
        (FaultPlan::crash_mid_write(0, 64), true), // torn payload temp
        (FaultPlan::crash_at(1), true),            // temp unsynced
        (FaultPlan::crash_at(2), true),            // pre-rename
        (FaultPlan::crash_at(3), true),            // renamed, dir unsynced
        (FaultPlan::crash_at(4), true),            // pre-manifest-append
        (FaultPlan::crash_mid_write(4, 13), true), // partial manifest record
        (FaultPlan::crash_at(5), false),           // appended, manifest unsynced
    ];

    for (i, (plan, must_be_old)) in plans.iter().enumerate() {
        let dir = scratch_dir(&format!("crash-{i}"));
        // Seed the OLD epoch through a clean store.
        {
            let store = SnapshotStore::open(&dir, 4).unwrap();
            store.persist(0, &old_bytes).unwrap();
        }
        // Serve with the fault-injected store and try to install NEW.
        let faulty = Arc::new(FaultyIo::new(plan.clone()));
        let store = Arc::new(
            SnapshotStore::open_with(&dir, 4, Box::new(SharedIo(Arc::clone(&faulty))))
                .expect("recovery of a clean store does not mutate"),
        );
        let manager = Arc::new(ShardManager::new());
        let config = ServerConfig { store: Some(store), ..ServerConfig::default() };
        let handle = Server::spawn(config, manager).expect("daemon binds");
        let mut client = Client::connect(handle.addr()).expect("client connects");

        let err = client
            .load_snapshot(0, &new_bytes)
            .expect_err(&format!("plan {i} must fail the install"));
        assert!(
            matches!(&err, ClientError::Server(m) if m.contains("not persisted")),
            "plan {i}: wrong error {err}"
        );
        assert!(faulty.is_dead(), "plan {i}: the fault must have fired");
        // The live daemon still serves the old epoch after the
        // failed install — no wedge, no partial state.
        let served: Vec<u64> = client
            .query_batch(0, &refs)
            .expect("old epoch keeps serving after the crash")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(served, expect_old, "plan {i}: post-crash serving blended");
        drop(client);
        handle.shutdown();

        // "Process restart": recover the directory with a clean
        // store and serve again.
        let manager = Arc::new(ShardManager::new());
        let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
        let handle = Server::spawn(config, manager).expect("daemon restarts");
        let mut client = Client::connect(handle.addr()).expect("client reconnects");
        let served: Vec<u64> = client
            .query_batch(0, &refs)
            .expect("recovered epoch serves")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        if *must_be_old {
            assert_eq!(served, expect_old, "plan {i}: pre-commit crash must recover the old epoch");
        } else {
            assert!(
                served == expect_old || served == expect_new,
                "plan {i}: recovery blended epochs"
            );
        }
        // Recovery also finished the cleanup: no temp files remain.
        let leftover_tmp = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".tmp"));
        assert!(!leftover_tmp, "plan {i}: torn temp files must be swept");
        drop(client);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Manifest recovery corpora: truncations at (and inside) every record
/// boundary, a bit-flipped record, duplicate epochs, a missing payload
/// file, and a corrupt header all recover to the newest *valid* epoch —
/// and an empty directory is a fresh start, not an error.
#[test]
fn manifest_corpora_recover_last_valid_prefix() {
    let gens: Vec<FrozenSynopsis> = (0..3).map(|i| synthetic(100.0 * (i + 1) as f64)).collect();
    let payloads: Vec<Vec<u8>> = gens.iter().map(|g| g.to_bytes()).collect();

    // Build a clean 3-epoch store to copy corpora from.
    let master = scratch_dir("master");
    {
        let store = SnapshotStore::open(&master, 8).unwrap();
        for bytes in &payloads {
            store.persist(7, bytes).unwrap();
        }
    }
    let master_manifest = std::fs::read(manifest_path(&master)).unwrap();
    assert_eq!(master_manifest.len(), MANIFEST_HEADER.len() + 3 * MANIFEST_RECORD_LEN);

    let clone_master = |tag: &str| -> PathBuf {
        let dir = scratch_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for entry in std::fs::read_dir(&master).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
        dir
    };
    let recovered_epoch = |dir: &Path| -> Option<(u64, Vec<u8>)> {
        let store = SnapshotStore::open(dir, 8).expect("corrupt corpora must not wedge open");
        let mut recs = store.take_recovered();
        assert!(recs.len() <= 1);
        recs.pop().map(|r| (r.epoch, r.bytes.to_vec()))
    };

    // Truncation at every record boundary, and a cut inside each record.
    for keep in 0..=3usize {
        for extra in [0usize, 17] {
            let cut = MANIFEST_HEADER.len() + keep * MANIFEST_RECORD_LEN + extra;
            if cut > master_manifest.len() || (keep == 3 && extra > 0) {
                continue;
            }
            let dir = clone_master(&format!("trunc-{keep}-{extra}"));
            let truncated = master_manifest[..cut].to_vec();
            std::fs::write(manifest_path(&dir), &truncated).unwrap();
            match (keep, recovered_epoch(&dir)) {
                (0, got) => assert!(got.is_none(), "0 whole records → fresh-ish start"),
                (k, Some((epoch, bytes))) => {
                    assert_eq!(epoch, k as u64, "cut at {cut} keeps {k} records");
                    assert_eq!(bytes, payloads[k - 1], "payload bit-identical");
                }
                (k, None) => panic!("cut at {cut} lost all {k} retained epochs"),
            }
            // The repair is durable: a second open sees the same state
            // (torn tail rewritten, not re-discovered).
            let second = SnapshotStore::open(&dir, 8).unwrap();
            assert_eq!(
                second.retained_epochs(7).len(),
                keep,
                "repaired manifest replays identically"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // A bit flip inside record 1 (0-based): the valid prefix is record 0
    // only — recovery serves epoch 1 and discards the rest.
    {
        let dir = clone_master("bitflip");
        let mut bytes = master_manifest.clone();
        bytes[MANIFEST_HEADER.len() + MANIFEST_RECORD_LEN + 5] ^= 0x40;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("prefix survives the flip");
        assert_eq!(epoch, 1);
        assert_eq!(payload, payloads[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Duplicate epochs (a half-committed retry's signature): the later
    // occurrence wins and the retained list stays duplicate-free.
    {
        let dir = clone_master("dup");
        let mut bytes = master_manifest.clone();
        let first_rec = master_manifest
            [MANIFEST_HEADER.len()..MANIFEST_HEADER.len() + MANIFEST_RECORD_LEN]
            .to_vec();
        bytes.extend_from_slice(&first_rec);
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        let store = SnapshotStore::open(&dir, 8).unwrap();
        assert_eq!(store.retained_epochs(7), vec![1, 2, 3], "no duplicate epochs");
        let rec = store.take_recovered().pop().unwrap();
        assert_eq!(rec.epoch, 3, "newest epoch still wins");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Missing payload file for the newest epoch: fall back to epoch 2.
    {
        let dir = clone_master("missing");
        let newest = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("snap-"))
            .max()
            .unwrap();
        std::fs::remove_file(newest).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("older epoch takes over");
        assert_eq!(epoch, 2);
        assert_eq!(payload, payloads[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Bit rot in the newest payload file: checksum rejects it, epoch 2
    // takes over.
    {
        let dir = clone_master("payload-rot");
        let newest = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("snap-"))
            .max()
            .unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        let (epoch, payload) = recovered_epoch(&dir).expect("older epoch takes over");
        assert_eq!(epoch, 2);
        assert_eq!(payload, payloads[1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // A corrupt header means no record was ever committed: fresh start.
    {
        let dir = clone_master("header");
        let mut bytes = master_manifest.clone();
        bytes[0] ^= 0xFF;
        std::fs::write(manifest_path(&dir), &bytes).unwrap();
        assert!(recovered_epoch(&dir).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // An empty directory is a fresh start, not an error (daemon-level).
    {
        let dir = scratch_dir("fresh");
        let manager = Arc::new(ShardManager::new());
        let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
        let handle = Server::spawn(config, Arc::clone(&manager)).expect("empty dir binds");
        let mut client = Client::connect(handle.addr()).expect("client connects");
        let report = client.metrics().expect("metrics answered");
        assert_eq!(report.recoveries_total, 0, "nothing to recover from an empty dir");
        client.load_snapshot(0, &payloads[0]).expect("fresh store accepts installs");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&master);
}

/// The `Rollback` wire op end to end: re-installs a retained epoch under
/// a fresh durable epoch, the re-install survives a restart, unknown
/// epochs fail with the retained list, retention bounds the rollback
/// window, and a store-less daemon refuses the op outright.
#[test]
fn rollback_over_the_wire_restores_prior_release_durably() {
    let gen_a = synthetic(10.0);
    let gen_b = synthetic(20.0);
    let probe = probe_set();
    let refs = probe_refs(&probe);
    let expect_a: Vec<u64> = gen_a.query_batch(&refs).iter().map(|v| v.to_bits()).collect();

    let dir = scratch_dir("rollback");
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");

    let e1 = client.load_snapshot(0, &gen_a.to_bytes()).expect("A installs");
    let e2 = client.load_snapshot(0, &gen_b.to_bytes()).expect("B installs");
    assert!(e2 > e1);

    // Roll back to A: fresh epoch, A's bits serve again.
    let e3 = client.rollback(0, e1).expect("rollback to a retained epoch");
    assert!(e3 > e2, "rollback is append-only: a fresh epoch, not a rewind");
    let served: Vec<u64> =
        client.query_batch(0, &refs).unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, expect_a, "rollback serves the prior release bit-identically");
    let report = client.metrics().expect("metrics");
    assert_eq!(report.rollbacks_total, 1);
    assert_eq!(report.ops.rollback, 1);

    // Unknown epoch: typed refusal carrying the retained list; nothing
    // changes.
    let err = client.rollback(0, 999).expect_err("unknown epoch refused");
    assert!(matches!(&err, ClientError::Server(m) if m.contains("not retained")), "got: {err}");
    drop(client);
    handle.shutdown();

    // Restart: the rollback record is durable — A's bits still serve.
    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon restarts");
    let mut client = Client::connect(handle.addr()).expect("client reconnects");
    let served: Vec<u64> =
        client.query_batch(0, &refs).unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, expect_a, "rolled-back release survives restart");
    let report = client.metrics().expect("metrics");
    assert_eq!(report.recoveries_total, 1, "one corpus replayed at startup");
    drop(client);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Store-less daemon: Rollback is a typed refusal.
    let manager = Arc::new(ShardManager::new());
    let handle = Server::spawn(ServerConfig::default(), manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let err = client.rollback(0, 1).expect_err("no store, no rollback");
    assert!(
        matches!(&err, ClientError::Server(m) if m.contains("without a snapshot store")),
        "got: {err}"
    );
    handle.shutdown();
}

/// Retention end to end: with `retain_epochs = 2`, old epochs (and their
/// payload files) are pruned, pruned epochs refuse rollback, and the
/// retained window still works.
#[test]
fn retention_bounds_the_rollback_window() {
    let dir = scratch_dir("retain");
    let gens: Vec<FrozenSynopsis> = (0..4).map(|i| synthetic(50.0 * (i + 1) as f64)).collect();
    let manager = Arc::new(ShardManager::new());
    let config =
        ServerConfig { store_dir: Some(dir.clone()), retain_epochs: 2, ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon binds");
    let mut client = Client::connect(handle.addr()).expect("client connects");
    let mut epochs = Vec::new();
    for g in &gens {
        epochs.push(client.load_snapshot(0, &g.to_bytes()).expect("install"));
    }

    // Only the newest two payload files remain on disk.
    let snaps = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("snap-"))
        .count();
    assert_eq!(snaps, 2, "retention deletes pruned payload files");

    // Pruned epoch: refused, with the retained window in the message.
    let err = client.rollback(0, epochs[0]).expect_err("pruned epoch refused");
    assert!(matches!(&err, ClientError::Server(m) if m.contains("not retained")), "got: {err}");
    // Retained epoch: works.
    let probe = probe_set();
    let refs = probe_refs(&probe);
    let expect: Vec<u64> = gens[2].query_batch(&refs).iter().map(|v| v.to_bits()).collect();
    client.rollback(0, epochs[2]).expect("retained epoch rolls back");
    let served: Vec<u64> =
        client.query_batch(0, &refs).unwrap().iter().map(|v| v.to_bits()).collect();
    assert_eq!(served, expect);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Multi-corpus recovery: each corpus independently serves its newest
/// valid epoch after restart, and `recoveries_total` counts corpora.
#[test]
fn restart_recovers_every_corpus_to_its_newest_epoch() {
    let dir = scratch_dir("multi");
    let gens: Vec<FrozenSynopsis> = (0..3).map(|i| synthetic(7.0 * (i + 1) as f64)).collect();
    let probe = probe_set();
    let refs = probe_refs(&probe);

    {
        let manager = Arc::new(ShardManager::new());
        let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
        let handle = Server::spawn(config, manager).expect("daemon binds");
        let mut client = Client::connect(handle.addr()).expect("client connects");
        for (i, g) in gens.iter().enumerate() {
            client.load_snapshot(i as u32, &g.to_bytes()).expect("install");
        }
        // Shard 1 gets a newer second epoch; recovery must pick it.
        client.load_snapshot(1, &gens[2].to_bytes()).expect("second epoch");
        handle.shutdown();
    }

    let manager = Arc::new(ShardManager::new());
    let config = ServerConfig { store_dir: Some(dir.clone()), ..ServerConfig::default() };
    let handle = Server::spawn(config, manager).expect("daemon restarts");
    let mut client = Client::connect(handle.addr()).expect("client reconnects");
    let report = client.metrics().expect("metrics");
    assert_eq!(report.recoveries_total, 3, "three corpora replayed");
    for (shard, gen) in [(0usize, &gens[0]), (1, &gens[2]), (2, &gens[2])] {
        let expect: Vec<u64> = gen.query_batch(&refs).iter().map(|v| v.to_bits()).collect();
        let served: Vec<u64> =
            client.query_batch(shard as u32, &refs).unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(served, expect, "shard {shard} recovered the wrong epoch");
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
