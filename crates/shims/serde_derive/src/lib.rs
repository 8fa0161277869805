//! Offline shim of `serde_derive`.
//!
//! The build environment has no registry access, so this crate re-implements the
//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros against the local
//! `serde` shim: `Serialize` feeds the shim's visitor `serde::Serializer`
//! (one call per struct, field, element and variant, like real serde), and
//! `Deserialize` pulls from the shim's `serde::Deserializer` the same way,
//! filling struct fields as their keys stream by.  It parses the item token
//! stream by hand (no `syn`/`quote`) and supports the shapes this workspace
//! actually uses: non-generic named structs (with `#[serde(skip)]` fields),
//! tuple structs, unit structs, and enums with unit, tuple (up to four
//! fields) and struct variants (externally tagged, like real serde).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
struct Field {
    name: String,
    skip: bool,
}

#[derive(Debug)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

#[derive(Debug)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug)]
enum Item {
    NamedStruct {
        name: String,
        fields: Vec<Field>,
    },
    TupleStruct {
        name: String,
        arity: usize,
    },
    UnitStruct {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

fn is_punct(tok: &TokenTree, ch: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(tok: &TokenTree, word: &str) -> bool {
    matches!(tok, TokenTree::Ident(id) if id.to_string() == word)
}

/// Advances past a type (or discriminant expression) until a `,` at angle-bracket
/// depth zero, returning the index just past the comma (or the end).
fn skip_past_comma(toks: &[TokenTree], mut i: usize) -> usize {
    let mut depth: i32 = 0;
    while i < toks.len() {
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Whether an attribute group marks the field as `#[serde(skip)]`.
fn attr_is_serde_skip(group: &proc_macro::Group) -> bool {
    let body = group.stream().to_string();
    let compact: String = body.chars().filter(|c| !c.is_whitespace()).collect();
    compact.starts_with("serde(") && compact.contains("skip")
}

/// Skips leading attributes, reporting whether any was `#[serde(skip)]`.
fn eat_attrs(toks: &[TokenTree], mut i: usize) -> (usize, bool) {
    let mut skip = false;
    while i + 1 < toks.len() && is_punct(&toks[i], '#') {
        if let TokenTree::Group(g) = &toks[i + 1] {
            if attr_is_serde_skip(g) {
                skip = true;
            }
        }
        i += 2;
    }
    (i, skip)
}

/// Skips a visibility modifier (`pub`, `pub(crate)`, …).
fn eat_vis(toks: &[TokenTree], mut i: usize) -> usize {
    if i < toks.len() && is_ident(&toks[i], "pub") {
        i += 1;
        if i < toks.len() {
            if let TokenTree::Group(g) = &toks[i] {
                if g.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        }
    }
    i
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (j, skip) = eat_attrs(&toks, i);
        i = eat_vis(&toks, j);
        if i >= toks.len() {
            break;
        }
        let name = toks[i].to_string();
        i += 1; // field name
        i += 1; // ':'
        i = skip_past_comma(&toks, i);
        fields.push(Field { name, skip });
    }
    fields
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut arity = 0;
    let mut i = 0;
    while i < toks.len() {
        let (j, _) = eat_attrs(&toks, i);
        i = eat_vis(&toks, j);
        if i >= toks.len() {
            break;
        }
        i = skip_past_comma(&toks, i);
        arity += 1;
    }
    arity
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let (j, _) = eat_attrs(&toks, i);
        i = j;
        if i >= toks.len() {
            break;
        }
        let name = toks[i].to_string();
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_tuple_fields(g.stream());
                i += 1;
                VariantKind::Tuple(arity)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                i += 1;
                VariantKind::Struct(fields)
            }
            _ => VariantKind::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        i = skip_past_comma(&toks, i);
        variants.push(Variant { name, kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    while i < toks.len() && !is_ident(&toks[i], "struct") && !is_ident(&toks[i], "enum") {
        if is_punct(&toks[i], '#') {
            i += 2;
        } else {
            i += 1;
        }
    }
    let is_struct = is_ident(&toks[i], "struct");
    i += 1;
    let name = toks[i].to_string();
    i += 1;
    if i < toks.len() && is_punct(&toks[i], '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    if is_struct {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Item::TupleStruct {
                    name,
                    arity: count_tuple_fields(g.stream()),
                }
            }
            _ => Item::UnitStruct { name },
        }
    } else {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            _ => panic!("serde_derive shim: malformed enum `{name}`"),
        }
    }
}

/// `serialize_field` calls for the non-skipped fields, each value
/// read through `access` (`&self.` for structs, empty for bound variant
/// fields).
fn field_calls(fields: &[Field], access: &str) -> String {
    fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| {
            format!(
                "__serializer.serialize_field(\"{n}\", {access}{n});\n",
                n = f.name
            )
        })
        .collect()
}

/// `#[derive(Serialize)]` against the local serde shim.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::NamedStruct { name, fields } => (
            name,
            format!(
                "__serializer.serialize_struct(\"{name}\");\n{}__serializer.end_struct();",
                field_calls(fields, "&self.")
            ),
        ),
        Item::TupleStruct { name, arity: 1 } => (
            name,
            "::serde::Serialize::serialize(&self.0, __serializer);".to_string(),
        ),
        Item::TupleStruct { name, arity } => {
            let elements: String = (0..*arity)
                .map(|k| format!("__serializer.serialize_element(&self.{k});\n"))
                .collect();
            (
                name,
                format!("__serializer.serialize_seq();\n{elements}__serializer.end_seq();"),
            )
        }
        Item::UnitStruct { name } => (name, "__serializer.serialize_unit();".to_string()),
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for v in variants {
                let vn = &v.name;
                match &v.kind {
                    VariantKind::Unit => arms.push_str(&format!(
                        "{name}::{vn} => __serializer.serialize_unit_variant(\"{name}\", \"{vn}\"),\n"
                    )),
                    VariantKind::Tuple(arity) => {
                        assert!(
                            (1..=4).contains(arity),
                            "serde_derive shim: tuple variant `{name}::{vn}` needs one to four fields"
                        );
                        let binders: Vec<String> = (0..*arity).map(|k| format!("f{k}")).collect();
                        let payload = if *arity == 1 {
                            "f0".to_string()
                        } else {
                            format!("&({},)", binders.join(", "))
                        };
                        arms.push_str(&format!(
                            "{name}::{vn}({binds}) => \
                             __serializer.serialize_newtype_variant(\"{name}\", \"{vn}\", {payload}),\n",
                            binds = binders.join(", ")
                        ));
                    }
                    VariantKind::Struct(fields) => {
                        let binders: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
                        arms.push_str(&format!(
                            "{name}::{vn} {{ {binds} }} => {{\n\
                             __serializer.serialize_struct_variant(\"{name}\", \"{vn}\");\n\
                             {calls}__serializer.end_struct_variant();\n}}\n",
                            binds = binders.join(", "),
                            calls = field_calls(fields, "")
                        ));
                    }
                }
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: &mut __S) {{\n\
         {body}\n}}\n}}"
    )
    .parse()
    .expect("serde_derive shim: generated invalid Serialize impl")
}

/// The body that reads a struct (or struct variant) with named fields from
/// `__d` and evaluates to `Result<{path}, Error>`.  Each field gets an
/// `Option` slot (its type inferred from the struct literal) filled as the
/// keys stream by: unknown keys and repeats of a filled field are skipped, so
/// the first occurrence of a key wins, and `#[serde(skip)]` fields take
/// `Default`.
fn named_fields_de(path: &str, fields: &[Field]) -> String {
    let wanted: Vec<&Field> = fields.iter().filter(|f| !f.skip).collect();
    let mut slots = String::new();
    let mut keys = String::new();
    let mut fills = String::new();
    for (k, f) in wanted.iter().enumerate() {
        slots.push_str(&format!("let mut __v{k} = ::std::option::Option::None;\n"));
        keys.push_str(&format!(
            "::std::option::Option::Some(\"{n}\") => {k}usize,\n",
            n = f.name
        ));
        fills.push_str(&format!(
            "{k}usize if __v{k}.is_none() => \
             __v{k} = ::std::option::Option::Some(::serde::Deserialize::deserialize(__d)?),\n"
        ));
    }
    let mut inits = String::new();
    let mut k = 0;
    for f in fields {
        if f.skip {
            inits.push_str(&format!(
                "{}: ::std::default::Default::default(),\n",
                f.name
            ));
        } else {
            inits.push_str(&format!(
                "{n}: match __v{k} {{\n\
                 ::std::option::Option::Some(__v) => __v,\n\
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::Error::custom(\"missing field `{n}` for {path}\")),\n}},\n",
                n = f.name
            ));
            k += 1;
        }
    }
    let unknown = wanted.len();
    format!(
        "{slots}loop {{\n\
         let __slot = match __d.next_field()? {{\n\
         ::std::option::Option::None => break,\n\
         {keys}\
         ::std::option::Option::Some(_) => {unknown}usize,\n}};\n\
         match __slot {{\n{fills}_ => __d.skip_value()?,\n}}\n}}\n\
         ::std::result::Result::Ok({path} {{\n{inits}}})"
    )
}

/// The body that reads a tuple payload of `arity` fields (a JSON array) and
/// builds `ctor(..)` from it, through the serde shim's tuple impls.
fn tuple_de(ctor: &str, arity: usize) -> String {
    let placeholders = vec!["_"; arity].join(", ");
    let fields: Vec<String> = (0..arity).map(|k| format!("__t.{k}")).collect();
    format!(
        "let __t = <({placeholders},) as ::serde::Deserialize>::deserialize(__d)?;\n\
         ::std::result::Result::Ok({ctor}({fields}))",
        fields = fields.join(", ")
    )
}

/// `#[derive(Deserialize)]` against the local serde shim.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::NamedStruct { name, fields } => (
            name,
            format!(
                "__d.deserialize_struct(\"{name}\")?;\n{}",
                named_fields_de(name, fields)
            ),
        ),
        Item::TupleStruct { name, arity: 1 } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))"),
        ),
        Item::TupleStruct { name, arity } => (name, tuple_de(name, *arity)),
        Item::UnitStruct { name } => (
            name,
            format!("__d.skip_value()?;\n::std::result::Result::Ok({name})"),
        ),
        Item::Enum { name, variants } => {
            let mut tags = String::new();
            let mut arms = String::new();
            for (k, v) in variants.iter().enumerate() {
                let vn = &v.name;
                let path = format!("{name}::{vn}");
                let payload = !matches!(v.kind, VariantKind::Unit);
                tags.push_str(&format!("(\"{vn}\", {payload}) => {k}usize,\n"));
                let read = match &v.kind {
                    VariantKind::Unit => {
                        arms.push_str(&format!("{k}usize => ::std::result::Result::Ok({path}),\n"));
                        continue;
                    }
                    VariantKind::Tuple(1) => format!(
                        "::std::result::Result::Ok({path}(::serde::Deserialize::deserialize(__d)?))"
                    ),
                    VariantKind::Tuple(arity) => tuple_de(&path, *arity),
                    VariantKind::Struct(fields) => format!(
                        "__d.deserialize_struct(\"{path}\")?;\n{}",
                        named_fields_de(&path, fields)
                    ),
                };
                arms.push_str(&format!(
                    "{k}usize => {{\n\
                     let __value: ::std::result::Result<{name}, ::serde::Error> = {{\n{read}\n}};\n\
                     let __value = __value?;\n\
                     __d.end_variant()?;\n\
                     ::std::result::Result::Ok(__value)\n}}\n"
                ));
            }
            (
                name,
                format!(
                    "let __variant = match __d.deserialize_variant(\"{name}\")? {{\n\
                     {tags}\
                     (__other, _) => return ::std::result::Result::Err(::serde::Error::custom(\
                     &::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n}};\n\
                     match __variant {{\n{arms}_ => ::std::unreachable!(),\n}}"
                ),
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer>(__d: &mut __D) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
    )
    .parse()
    .expect("serde_derive shim: generated invalid Deserialize impl")
}
