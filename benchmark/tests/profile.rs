//! The benchmark must measure the build users get: its `[profile.release]`
//! has to stay equal to the root manifest's, which cargo ignores for a
//! package outside the root workspace.

use std::collections::BTreeMap;

/// The `key = value` pairs of a manifest's `[profile.release]` table.
fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (key, value) = line.split_once('=').expect("a `key = value` line");
            (key.trim().to_owned(), value.trim().to_owned())
        })
        .collect()
}

#[test]
fn release_profile_matches_the_root_manifest() {
    let root = release_profile(include_str!("../../Cargo.toml"));
    let own = release_profile(include_str!("../Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest lost its [profile.release]; update this test");
    assert_eq!(own, root, "benchmark/Cargo.toml must copy the root [profile.release] verbatim");
}

#[test]
fn the_parser_reads_only_the_release_table() {
    let text = "[profile.dev]\nopt-level = 1\n\n# why\n[profile.release]\nlto = \"thin\"\n# note\ncodegen-units = 1\n[features]\nx = []\n";
    let want: BTreeMap<String, String> = [("lto", "\"thin\""), ("codegen-units", "1")]
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .into();
    assert_eq!(release_profile(text), want);
}
