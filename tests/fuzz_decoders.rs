//! Mutation fuzzing of the input decoders: ELF images, instruction words,
//! persisted documents and custom-instruction YAML — and of the resume
//! path, which loads a mutated checkpoint and explores from it. Whatever
//! the bytes, each must return a typed error or a value — never panic.
//!
//! Every loop mutates real seed inputs with the `binsym-testutil`
//! xorshift generator (bit flips, byte writes, insertions, deletions,
//! truncation, and "interesting" 32-bit values such as 0 and `u32::MAX`
//! dropped over length fields). The persisted-document seeds are a
//! mid-run and a drain checkpoint of a coverage-guided run of a program of
//! several units. A panicking case is reported with its seed and bytes.
//!
//! The default counts keep the debug tier-1 run short; the `#[ignore]`d
//! variants run many more cases (`cargo test --release --test
//! fuzz_decoders -- --include-ignored`).

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use binsym_repro::bench::programs::{all_programs, TABLE_LOOKUP};
use binsym_repro::binsym::persist::section;
use binsym_repro::binsym::{
    decode_one, decode_seq, encode_seq, AddressPolicyKind, CheckpointEvent, CoverageGuided,
    CoverageMap, CoverageObserver, Document, Observer, PathId, PathRecord, Prescription, Session,
    Wire,
};
use binsym_repro::elf::ElfFile;
use binsym_repro::isa::encoding::{InstrTable, MADD_YAML};
use binsym_repro::isa::spec::zbb;
use binsym_repro::isa::Spec;
use binsym_testutil::Rng;
use common::TABLE_UNITS;

/// 32-bit values that tend to break length and offset fields.
const INTERESTING: [u32; 10] = [
    0,
    1,
    2,
    0x7f,
    0x80,
    0xff,
    0xffff,
    0x10000,
    0x7fff_ffff,
    u32::MAX,
];

/// One to four stacked mutations of `seed`.
fn mutate(rng: &mut Rng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..1 + rng.below(4) {
        let len = bytes.len() as u64;
        let at = |rng: &mut Rng| rng.below(len.max(1)) as usize;
        match rng.below(8) {
            0 | 1 if len > 0 => {
                let i = at(rng);
                bytes[i] ^= 1 << rng.below(8);
            }
            2 if len > 0 => {
                let i = at(rng);
                bytes[i] = rng.next_u8();
            }
            3 | 4 if len >= 4 => {
                let i = rng.below(len - 3) as usize;
                let v = INTERESTING[rng.below(INTERESTING.len() as u64) as usize];
                bytes[i..i + 4].copy_from_slice(&v.to_le_bytes());
            }
            5 => {
                let i = rng.below(len + 1) as usize;
                bytes.insert(i, rng.next_u8());
            }
            6 if len > 0 => {
                let i = at(rng);
                bytes.remove(i);
            }
            _ => bytes.truncate(rng.below(len + 1) as usize),
        }
    }
    bytes
}

/// Runs `decode` on `cases` mutants of each seed; fails with the offending
/// bytes if any call panics.
fn fuzz(what: &str, rng_seed: u64, seeds: &[Vec<u8>], cases: usize, decode: impl Fn(&[u8])) {
    let mut rng = Rng::new(rng_seed);
    for (s, seed) in seeds.iter().enumerate() {
        for case in 0..cases {
            let bytes = mutate(&mut rng, seed);
            if catch_unwind(AssertUnwindSafe(|| decode(&bytes))).is_err() {
                panic!(
                    "{what}: seed {s}, case {case} panicked on {} bytes: {:02x?}",
                    bytes.len(),
                    bytes
                );
            }
        }
    }
}

/// Decodes `bytes` as every persisted type, one value and a sequence of
/// each; the results are discarded (an error is as good as a value).
fn decode_as_every_type(bytes: &[u8]) {
    fn both<T: Wire>(bytes: &[u8]) {
        let _ = decode_one::<T>(bytes);
        let _ = decode_seq::<T>(bytes);
    }
    both::<PathRecord>(bytes);
    both::<Prescription>(bytes);
    both::<PathId>(bytes);
    both::<AddressPolicyKind>(bytes);
}

/// Parses `bytes` as a document and decodes every section it holds.
fn decode_document(bytes: &[u8]) {
    if let Ok(doc) = Document::from_bytes(bytes) {
        for tag in 0..=10 {
            if let Some(payload) = doc.section(tag) {
                decode_as_every_type(payload);
            }
        }
    }
}

/// Copies the checkpoint file the first time a worker reports one written:
/// the root unit's commit, which leaves the other units pending. The run
/// has one worker, which reports the write before it takes the next unit,
/// so no later write can replace the file before the copy.
struct GrabCheckpoint {
    path: std::path::PathBuf,
    grabbed: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Observer for GrabCheckpoint {
    fn on_checkpoint(&mut self, event: CheckpointEvent) {
        if let CheckpointEvent::Written { .. } = event {
            let mut grabbed = self.grabbed.lock().expect("grab lock");
            if grabbed.is_none() {
                *grabbed = std::fs::read(&self.path).ok();
            }
        }
    }
}

/// The persisted seeds: the mid-run and the drain checkpoint documents of
/// a coverage-guided hunt, and the mid-run checkpoint's section payloads
/// plus the hunt's encoded records.
fn persisted_seeds() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let elf = TABLE_UNITS.build();
    let map = CoverageMap::shared_for(&elf);
    let (policy_map, observer_map) = (Arc::clone(&map), Arc::clone(&map));
    let path = temp_path("seed");
    let grabbed = Arc::new(Mutex::new(None));
    let (grab_path, grab) = (path.clone(), Arc::clone(&grabbed));
    let mut session = Session::builder(Spec::rv32im())
        .binary(&elf)
        .workers(1)
        .checkpoint(&path, 8)
        .shard_strategy(move |_| {
            Box::new(CoverageGuided::<Prescription>::new(Arc::clone(&policy_map)))
        })
        .observer_factory(move |_| {
            Box::new((
                CoverageObserver::new(Arc::clone(&observer_map)),
                GrabCheckpoint {
                    path: grab_path.clone(),
                    grabbed: Arc::clone(&grab),
                },
            ))
        })
        .build_parallel()
        .expect("builds");
    let summary = session.run_all().expect("explores");
    assert_eq!(summary.paths, TABLE_UNITS.expected_paths);
    let drained = std::fs::read(&path).expect("drain checkpoint");
    let _ = std::fs::remove_file(&path);
    let checkpoint = grabbed
        .lock()
        .expect("grab lock")
        .take()
        .expect("a mid-run checkpoint was written");
    let doc = Document::from_bytes(&checkpoint).expect("a real checkpoint parses");
    let pending: Vec<Prescription> =
        decode_seq(doc.section(section::PENDING).expect("pending section")).expect("decodes");
    assert!(
        !pending.is_empty(),
        "a mid-run cut has pending prescriptions"
    );
    let mut payloads: Vec<Vec<u8>> = (0..=10)
        .filter_map(|tag| doc.section(tag).map(<[u8]>::to_vec))
        .collect();
    payloads.push(encode_seq(session.records()));
    (vec![checkpoint, drained], payloads)
}

/// A scratch file path unique to this process and call: the tier-1 and
/// heavy tests run concurrently.
fn temp_path(what: &str) -> std::path::PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "binsym-fuzz-{what}-{}-{}.ck",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ))
}

fn persisted_documents(cases: usize) {
    let (documents, payloads) = persisted_seeds();
    fuzz(
        "Document::from_bytes",
        0xf0cc_0001,
        &documents,
        cases,
        decode_document,
    );
    fuzz(
        "section payloads",
        0xf0cc_0002,
        &payloads,
        cases,
        decode_as_every_type,
    );
}

/// Resumes a 2-worker session of the seeds' program from each mutated
/// checkpoint: the checkpoint loader (metadata, unit settings, prescription
/// records, watermark ids) and the resumed exploration must end in `Ok` or
/// a typed error.
fn resumed_checkpoints(cases: usize) {
    let (documents, _) = persisted_seeds();
    let elf = TABLE_UNITS.build();
    let path = temp_path("resume");
    fuzz("resume", 0xf0cc_0006, &documents, cases, |bytes| {
        std::fs::write(&path, bytes).expect("mutant checkpoint writes");
        let _ = Session::builder(Spec::rv32im())
            .binary(&elf)
            .workers(2)
            .resume(&path)
            .build_parallel()
            .and_then(|mut session| session.run_all());
    });
    let _ = std::fs::remove_file(&path);
}

fn elf_images(cases: usize) {
    let seeds: Vec<Vec<u8>> = all_programs()
        .iter()
        .chain([&TABLE_LOOKUP])
        .map(|p| p.build().to_bytes())
        .collect();
    fuzz("ElfFile::parse", 0xf0cc_0003, &seeds, cases, |bytes| {
        let _ = ElfFile::parse(bytes);
    });
}

fn instruction_words(cases: usize) {
    let mut madd = Spec::rv32im();
    madd.register_custom(MADD_YAML, binsym_repro::isa::spec::madd_semantics())
        .expect("registers");
    let specs = [Spec::rv32im(), zbb::rv32im_zbb(), madd];
    let mut rng = Rng::new(0xf0cc_0004);
    for spec in &specs {
        for _ in 0..cases {
            let raw = rng.next_u64() as u32;
            if catch_unwind(AssertUnwindSafe(|| spec.decode(raw))).is_err() {
                panic!("Spec::decode panicked on {raw:#010x}");
            }
        }
    }
}

fn madd_yaml(cases: usize) {
    let seeds = vec![MADD_YAML.as_bytes().to_vec()];
    fuzz(
        "InstrTable::register_yaml",
        0xf0cc_0005,
        &seeds,
        cases,
        |bytes| {
            let text = String::from_utf8_lossy(bytes);
            let _ = InstrTable::rv32im().register_yaml(&text);
        },
    );
}

#[test]
fn persisted_documents_never_panic() {
    persisted_documents(300);
}

#[test]
fn resumed_checkpoints_never_panic() {
    resumed_checkpoints(300);
}

#[test]
fn elf_images_never_panic() {
    elf_images(300);
}

#[test]
fn instruction_words_never_panic() {
    instruction_words(20_000);
}

#[test]
fn madd_yaml_never_panics() {
    madd_yaml(2_000);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn persisted_documents_never_panic_heavy() {
    persisted_documents(20_000);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn resumed_checkpoints_never_panic_heavy() {
    resumed_checkpoints(10_000);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn elf_images_never_panic_heavy() {
    elf_images(20_000);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn instruction_words_never_panic_heavy() {
    instruction_words(2_000_000);
}

#[test]
#[ignore = "heavy: run in release with --include-ignored"]
fn madd_yaml_never_panics_heavy() {
    madd_yaml(200_000);
}
