//! Integration suite for the content-addressed result cache
//! (`bench::cache`): the hit/miss/invalidation matrix, corruption
//! tolerance, and the interaction with the farm's cache hooks.

use std::path::PathBuf;
use std::time::Duration;

use bench::cache::{hash_bytes, ScenarioCache, CACHE_SCHEMA};
use bench::farm::{run_sweep_cached, CacheHooks, PointCtx};
use bench::json::Json;
use bench::scenario::{ScenarioOutcome, ScenarioSpec, Workload};

/// A unique, empty cache directory for one test.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sld-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(frames: usize) -> ScenarioSpec {
    ScenarioSpec::new("cache-test", Workload::VocoderArchitecture).frames(frames)
}

#[test]
fn hit_miss_and_invalidation_matrix() {
    let dir = fresh_dir("matrix");
    let mut cache = ScenarioCache::open(&dir).expect("cache opens");
    let base = spec(2);
    let outcome = base.run_seeded(7);
    assert!(outcome.completed, "{}", outcome.status);

    // Cold: miss, then insert.
    assert!(cache.lookup_spec(&base, 7).is_none());
    cache.insert_spec(&base, 7, &outcome);
    assert_eq!(cache.stats().inserts(), 1);

    // Warm: hit, byte-identical payload.
    let got = cache.lookup_spec(&base, 7).expect("warm lookup hits");
    assert_eq!(got.to_json().render(), outcome.to_json().render());
    assert_eq!(cache.stats().hits(), 1);

    // Seed change: miss.
    assert!(
        cache.lookup_spec(&base, 8).is_none(),
        "seed must key entries"
    );

    // Spec change (any serialized knob): miss.
    assert!(
        cache.lookup_spec(&spec(3), 7).is_none(),
        "spec edits must key entries"
    );
    assert!(
        cache
            .lookup_spec(&base.clone().timing_scale(1.5), 7)
            .is_none(),
        "timing_scale must key entries"
    );

    // Another point runner's entries are keyed apart, both ways.
    let other = ScenarioCache::open(&dir)
        .expect("cache opens")
        .for_runner("enumerate");
    assert!(
        other.lookup_spec(&base, 7).is_none(),
        "a plain run must not answer another runner"
    );
    other.insert_spec(&base, 7, &ScenarioOutcome::completed([("schedules", 6.0)]));
    let plain = cache.lookup_spec(&base, 7).expect("plain entry still hits");
    assert_eq!(plain.to_json().render(), outcome.to_json().render());
    assert_eq!(
        other
            .lookup_spec(&base, 7)
            .and_then(|o| o.metric("schedules")),
        Some(6.0)
    );

    // Build-salt bump (kernel schema revision / crate version): the old
    // entry self-invalidates.
    cache.set_salt("some-future-build");
    assert!(
        cache.lookup_spec(&base, 7).is_none(),
        "salt bump must invalidate"
    );
    assert_eq!(cache.stats().corrupt(), 0, "invalidation is not corruption");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_corrupted_entries_degrade_to_misses() {
    let dir = fresh_dir("corrupt");
    let cache = ScenarioCache::open(&dir).expect("cache opens");
    let s = spec(2);
    let outcome = s.run_seeded(3);
    cache.insert_spec(&s, 3, &outcome);

    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one entry written");
    let full = std::fs::read_to_string(&entry).unwrap();

    // Truncated mid-file: parse failure -> corrupt -> miss, no panic.
    std::fs::write(&entry, &full[..full.len() / 2]).unwrap();
    assert!(cache.lookup_spec(&s, 3).is_none());
    assert_eq!(cache.stats().corrupt(), 1);

    // Valid JSON, wrong schema: corrupt -> miss.
    std::fs::write(&entry, r#"{"schema":"rtos-sld-cache/99"}"#).unwrap();
    assert!(cache.lookup_spec(&s, 3).is_none());
    assert_eq!(cache.stats().corrupt(), 2);

    // Valid shape but a flipped payload byte: the payload hash catches it.
    let tampered = full.replace("\"completed\": true", "\"completed\": false");
    assert_ne!(tampered, full, "tamper target present");
    std::fs::write(&entry, &tampered).unwrap();
    assert!(cache.lookup_spec(&s, 3).is_none());
    assert_eq!(cache.stats().corrupt(), 3);

    // Not JSON at all.
    std::fs::write(&entry, "\x00\x01garbage").unwrap();
    assert!(cache.lookup_spec(&s, 3).is_none());
    assert_eq!(cache.stats().corrupt(), 4);

    // Restoring the original bytes restores the hit.
    std::fs::write(&entry, &full).unwrap();
    assert!(cache.lookup_spec(&s, 3).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn entry_files_carry_the_documented_schema() {
    let dir = fresh_dir("schema");
    let cache = ScenarioCache::open(&dir).expect("cache opens");
    let s = spec(1);
    cache.insert_spec(&s, 5, &s.run_seeded(5));

    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("one entry written");
    let doc = Json::parse(&std::fs::read_to_string(&entry).unwrap()).expect("entry parses");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(CACHE_SCHEMA));
    let key = doc.get("key").and_then(Json::as_str).expect("key");
    assert_eq!(key.len(), 32);
    assert_eq!(
        entry.file_stem().and_then(|s| s.to_str()),
        Some(key),
        "file stem is the content key"
    );
    let point = doc.get("point").expect("point payload");
    assert_eq!(
        doc.get("payload_hash").and_then(Json::as_str),
        Some(hash_bytes(point.render().as_bytes()).to_hex().as_str())
    );
    // The payload round-trips through the outcome decoder.
    assert!(ScenarioOutcome::from_json(point).is_ok());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn farm_cache_hooks_answer_warm_points_without_rerunning() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let dir = fresh_dir("farm");
    let cache = ScenarioCache::open(&dir).expect("cache opens");
    let points: Vec<ScenarioSpec> = (0..4)
        .map(|i| ScenarioSpec::new(format!("p{i}"), Workload::VocoderArchitecture).frames(1))
        .collect();
    let ran = AtomicU64::new(0);

    let lookup = |ctx: PointCtx, p: &ScenarioSpec| cache.lookup_spec(p, ctx.seed);
    let insert =
        |ctx: PointCtx, p: &ScenarioSpec, r: &ScenarioOutcome| cache.insert_spec(p, ctx.seed, r);
    let hooks = CacheHooks {
        lookup: &lookup,
        insert: &insert,
    };
    let sweep = |hooks| {
        run_sweep_cached(13, 2, &points, hooks, |ctx, p: &ScenarioSpec| {
            ran.fetch_add(1, Ordering::Relaxed);
            p.run_seeded(ctx.seed)
        })
        .into_iter()
        .map(|o| o.completed().expect("healthy point").to_json().render())
        .collect::<Vec<_>>()
    };

    let cold = sweep(Some(hooks));
    assert_eq!(ran.load(Ordering::Relaxed), 4, "cold run simulates all");
    assert_eq!(cache.counts().hits, 0);

    let warm = sweep(Some(hooks));
    assert_eq!(
        ran.load(Ordering::Relaxed),
        4,
        "warm run must not re-simulate"
    );
    assert_eq!(cache.counts().hits, 4);
    assert_eq!(cold, warm, "warm outcomes must be byte-identical");

    // And identical to a cache-free sweep: the cache is an accelerator,
    // never an observable input.
    let uncached = sweep(None);
    assert_eq!(cold, uncached);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_points_are_never_cached() {
    let dir = fresh_dir("degraded");
    let cache = ScenarioCache::open(&dir).expect("cache opens");
    let points: Vec<usize> = (0..3).collect();
    let specs: Vec<ScenarioSpec> = points
        .iter()
        .map(|i| ScenarioSpec::new(format!("p{i}"), Workload::VocoderArchitecture).frames(1))
        .collect();

    let lookup = |ctx: PointCtx, p: &usize| cache.lookup_spec(&specs[*p], ctx.seed);
    let insert =
        |ctx: PointCtx, p: &usize, r: &ScenarioOutcome| cache.insert_spec(&specs[*p], ctx.seed, r);
    let hooks = CacheHooks {
        lookup: &lookup,
        insert: &insert,
    };
    let outcomes = bench::farm::run_sweep_guarded_cached(
        21,
        2,
        Duration::from_secs(30),
        &points,
        Some(hooks),
        // The guarded runner is 'static (it runs on a watchdog thread),
        // so it rebuilds the spec instead of borrowing `specs`.
        |ctx, p: &usize| {
            if *p == 1 {
                panic!("injected failure");
            }
            ScenarioSpec::new(format!("p{p}"), Workload::VocoderArchitecture)
                .frames(1)
                .run_seeded(ctx.seed)
        },
    );
    let (healthy, degraded) = bench::farm::partition(outcomes);
    assert_eq!((healthy.len(), degraded.len()), (2, 1));
    // Only the two completed points were recorded.
    assert_eq!(cache.stats().inserts(), 2);
    let entries = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(entries, 2, "a degraded point must never be cached");

    let _ = std::fs::remove_dir_all(&dir);
}
