//! `App::build_env` clones a per-process base of parsed library annotations
//! instead of registering them from scratch.  These tests pin that the
//! result is indistinguishable from the from-scratch recipe, and that no
//! env built from the base can leak into another.

use comprdl::semdep::env_hash;
use comprdl::CompRdl;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The from-scratch recipe `build_env` replaced: every library annotation
/// set registered into a fresh environment.
fn from_scratch(app: &corpus::App) -> CompRdl {
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    if let Some(db) = &app.db {
        db_types::register_all(&mut env, Arc::new(db.clone()));
    }
    (app.annotate)(&mut env);
    env
}

/// Every class an env knows of, or has annotations or Table 1 LoC for.
fn class_names(env: &CompRdl) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = env.classes.names().map(str::to_string).collect();
    names.extend(env.annotations.iter().map(|((class, _, _), _)| class.clone()));
    names
}

fn assert_same_env(label: &str, built: &CompRdl, oracle: &CompRdl) {
    assert!(built.annotations == oracle.annotations, "{label}: annotation tables differ");
    let classes = class_names(oracle);
    assert_eq!(class_names(built), classes, "{label}: class names");
    for class in &classes {
        let class = class.as_str();
        assert_eq!(
            built.classes.ancestors(class),
            oracle.classes.ancestors(class),
            "{label}: ancestors of {class}"
        );
        assert_eq!(
            built.classes.is_model(class),
            oracle.classes.is_model(class),
            "{label}: is_model({class})"
        );
        assert_eq!(
            built.annotation_loc(class),
            oracle.annotation_loc(class),
            "{label}: Table 1 LoC of {class}"
        );
    }
    assert_eq!(built.helpers.names(), oracle.helpers.names(), "{label}: helper names");
    assert_eq!(built.helpers.ruby_loc(), oracle.helpers.ruby_loc(), "{label}: helper LoC");
    assert_eq!(env_hash(built), env_hash(oracle), "{label}: env_hash");
}

#[test]
fn build_env_matches_the_from_scratch_recipe_for_every_app() {
    for app in corpus::apps::all() {
        // Twice: the first call may build the shared base, the second
        // certainly clones it.
        for round in 0..2 {
            assert_same_env(
                &format!("{} (round {round})", app.name),
                &app.build_env(),
                &from_scratch(&app),
            );
        }
    }
}

#[test]
fn mutating_one_built_env_leaves_later_builds_untouched() {
    let apps = corpus::apps::all();
    for (i, app) in apps.iter().enumerate() {
        let other = &apps[(i + 1) % apps.len()];
        let mut env = app.build_env();
        env.type_sig("Hash", "[]", "(Object) -> Integer", None);
        env.type_sig("Table", "where", "() -> Integer", None);
        env.register_helpers_ruby("def schema_type(x)\n  x\nend\ndef fresh_helper(x)\n  x\nend\n");
        assert!(env.helpers.names().contains(&"fresh_helper".to_string()));
        assert_ne!(
            env_hash(&env),
            env_hash(&from_scratch(app)),
            "{}: mutation must show",
            app.name
        );

        assert_same_env(
            &format!("{} after mutating a sibling", app.name),
            &app.build_env(),
            &from_scratch(app),
        );
        assert_same_env(
            &format!("{} after mutating {}", other.name, app.name),
            &other.build_env(),
            &from_scratch(other),
        );
    }
}
