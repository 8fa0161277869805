//! Hostile and malformed input against `from_str`: every case answers `Ok`
//! or a structured `Err` (never a panic or a stack overflow), and the typed
//! rules hold — unknown keys are skipped but still validated, the first of
//! duplicate keys wins, a missing field names itself, numbers keep their
//! integer ranges.

use serde::Deserialize;
use serde_json::from_str;
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Deserialize)]
struct Probe {
    id: u64,
    name: String,
    #[serde(skip)]
    cached: u32,
    score: f64,
    tags: Vec<String>,
    kind: Kind,
}

#[derive(Debug, PartialEq, Deserialize)]
enum Kind {
    Plain,
    Tagged(u8),
    Pair(u8, String),
    Shaped { x: i32 },
}

const VALID: &str = r#"{"id":1,"name":"a","score":2.5,"tags":["t"],"kind":"Plain"}"#;

fn probe() -> Probe {
    Probe {
        id: 1,
        name: "a".into(),
        cached: 0,
        score: 2.5,
        tags: vec!["t".into()],
        kind: Kind::Plain,
    }
}

/// `VALID` with `extra` spliced in as its first entry.
fn with(extra: &str) -> String {
    format!("{{{extra},{}", &VALID[1..])
}

fn assert_err(text: &str) {
    assert!(from_str::<Probe>(text).is_err(), "accepted: {text:.200}");
}

#[test]
fn the_valid_document_parses_and_skip_fields_take_default() {
    assert_eq!(from_str::<Probe>(VALID).unwrap(), probe());
    assert_eq!(
        from_str::<Probe>(&format!(" \n{VALID}\t\r\n")).unwrap(),
        probe()
    );
    // Float fields accept integers.
    let integral = VALID.replace("2.5", "2");
    assert_eq!(from_str::<Probe>(&integral).unwrap().score, 2.0);
    // A `#[serde(skip)]` field present in the input is ignored.
    assert_eq!(from_str::<Probe>(&with(r#""cached":7"#)).unwrap(), probe());
}

#[test]
fn nesting_100_000_deep_is_an_error_not_a_stack_overflow() {
    let open = "[".repeat(100_000);
    let closed = format!("{open}{}", "]".repeat(100_000));
    for deep in [&open, &closed] {
        // Inside an unknown field, which is skipped rather than typed.
        let err = from_str::<Probe>(&with(&format!(r#""extra":{deep}"#))).unwrap_err();
        assert!(err.to_string().contains("recursion"), "{err}");
        // Inside typed fields.
        assert_err(&format!(r#"{{"id":1,"tags":{deep}"#));
        assert_err(&format!(r#"{{"kind":{{"Shaped":{deep}"#));
        assert!(from_str::<Vec<u8>>(deep).is_err());
    }
    let objects = r#"{"a":"#.repeat(100_000);
    assert_err(&with(&format!(r#""extra":{objects}"#)));
}

#[test]
fn malformed_json_inside_an_ignored_field_is_rejected() {
    for extra in [
        r#""extra":[1,2,}"#,
        r#""extra":tru"#,
        r#""extra":nul"#,
        r#""extra":"\q""#,
        r#""extra":"open"#,
        r#""extra":1.2.3"#,
        r#""extra":-"#,
        r#""extra":{"k" 1}"#,
        r#""extra":{1:2}"#,
        r#""extra":[1 2]"#,
        r#""extra":'x'"#,
        r#""extra":"\ud800""#,
    ] {
        assert_err(&with(extra));
    }
}

#[test]
fn unknown_fields_are_ignored() {
    for extra in [
        r#""extra":null"#,
        r#""extra":{"deep":[1,-2.5e3,{"x":null,"y":[true,false]}],"s":"\"\\é"}"#,
        r#""Plain":"Plain""#,
        r#""":[]"#,
    ] {
        assert_eq!(from_str::<Probe>(&with(extra)).unwrap(), probe(), "{extra}");
    }
}

#[test]
fn the_first_of_duplicate_keys_wins() {
    assert_eq!(from_str::<Probe>(&with(r#""id":9"#)).unwrap().id, 9);
    // The repeat is skipped, not typed: a wrong shape there is no error.
    let text = VALID.replace(r#""kind":"Plain""#, r#""kind":"Plain","kind":{"x":[]}"#);
    assert_eq!(from_str::<Probe>(&text).unwrap(), probe());
    assert_eq!(
        from_str::<Kind>(r#"{"Shaped":{"x":1,"x":2}}"#).unwrap(),
        Kind::Shaped { x: 1 }
    );
}

#[test]
fn a_missing_field_names_itself() {
    let text = VALID.replace(r#""score":2.5,"#, "");
    let err = from_str::<Probe>(&text).unwrap_err();
    assert!(
        err.to_string().contains("missing field `score` for Probe"),
        "{err}"
    );
    let err = from_str::<Kind>(r#"{"Shaped":{}}"#).unwrap_err();
    assert!(
        err.to_string()
            .contains("missing field `x` for Kind::Shaped"),
        "{err}"
    );
}

#[test]
fn trailing_characters_are_rejected() {
    for tail in [" x", "{}", ",", "]", "\"\"", " 1"] {
        assert_err(&format!("{VALID}{tail}"));
    }
    assert!(from_str::<u8>("1 2").is_err());
    assert!(from_str::<Option<u8>>("nullx").is_err());
    assert!(from_str::<bool>("truex").is_err());
    assert!(from_str::<Probe>("").is_err());
}

#[test]
fn bad_escapes_and_unpaired_surrogates_are_rejected() {
    for bad in [
        r#""\x""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\"#,
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\ud800\ud800""#,
        "\"unterminated",
    ] {
        assert!(from_str::<String>(bad).is_err(), "accepted {bad}");
        assert_err(&VALID.replace(r#""a""#, bad));
    }
    assert_eq!(
        from_str::<String>(r#""😀é\/\b\f""#).unwrap(),
        "😀é/\u{8}\u{c}"
    );
}

#[test]
fn integers_keep_their_ranges() {
    assert!(from_str::<u8>("256").is_err());
    assert!(from_str::<u8>("-1").is_err());
    assert!(from_str::<i8>("-129").is_err());
    assert!(from_str::<u64>("18446744073709551616").is_err());
    assert!(from_str::<i64>("9223372036854775808").is_err());
    assert!(from_str::<i64>("-9223372036854775809").is_err());
    assert!(from_str::<u32>("1.0").is_err());
    assert!(from_str::<u32>("1e2").is_err());
    assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
    // Past `u64`, a number is a float: fine for `f64`.
    assert_eq!(
        from_str::<f64>("18446744073709551616").unwrap(),
        2f64.powi(64)
    );
    assert!(from_str::<Kind>(r#"{"Tagged":256}"#).is_err());
    assert!(from_str::<Kind>(r#"{"Shaped":{"x":2147483648}}"#).is_err());
    assert_err(&with(r#""id":-1"#));
}

#[test]
fn enum_shapes_are_strict() {
    assert_eq!(from_str::<Kind>(r#""Plain""#).unwrap(), Kind::Plain);
    assert_eq!(
        from_str::<Kind>(r#"{"Tagged":3}"#).unwrap(),
        Kind::Tagged(3)
    );
    assert_eq!(
        from_str::<Kind>(r#" { "Pair" : [ 1 , "b" ] } "#).unwrap(),
        Kind::Pair(1, "b".into())
    );
    for bad in [
        r#""Tagged""#,
        r#"{"Plain":null}"#,
        r#"{"Tagged":1,"Plain":2}"#,
        r#"{"Tagged":1,}"#,
        r#"{}"#,
        r#"{"Nope":1}"#,
        r#""Nope""#,
        r#"{"Pair":[1]}"#,
        r#"{"Pair":[1,"b",2]}"#,
        r#"["Plain"]"#,
        "null",
    ] {
        assert!(from_str::<Kind>(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn maps_want_string_keys_and_keep_the_last_repeat() {
    let map: BTreeMap<String, u8> = from_str(r#"{"a":1,"b":2,"a":3}"#).unwrap();
    assert_eq!(map, BTreeMap::from([("a".into(), 3), ("b".into(), 2)]));
    assert!(from_str::<BTreeMap<String, u8>>(r#"{1:2}"#).is_err());
    assert!(from_str::<BTreeMap<Vec<u8>, u8>>(r#"{[1]:2}"#).is_err());
    assert!(from_str::<BTreeMap<String, u8>>(r#"{"a":1,}"#).is_err());
}
