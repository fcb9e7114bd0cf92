//! Derive macros for the offline `serde` shim.
//!
//! Parses the derive input with `proc_macro` alone (no `syn`/`quote` — the
//! build environment is offline) and emits impls of the shim's `Serialize` /
//! `Deserialize` traits for the two shapes the workspace's file formats use:
//!
//! - a struct with named fields, written as an object whose keys are the
//!   fields in declaration order;
//! - an enum under `#[serde(tag = "...", rename_all = "snake_case")]` whose
//!   variants all have named fields (the scenario event format), written as
//!   one flat object: the tag key holding the snake_case variant name
//!   first, then the variant's fields in declaration order.
//!
//! Any other shape — a tuple or unit struct, a generic type, an enum
//! without both attributes, a unit or tuple variant — panics at compile
//! time with the type's name. Field and variant attributes (doc comments)
//! are skipped.

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};
use std::fmt::Write as _;

/// The parsed derive input.
enum Shape {
    /// A struct's named fields.
    Struct(Vec<String>),
    /// An internally tagged enum: the tag key, then each variant's name and
    /// named fields.
    Tagged {
        tag: String,
        variants: Vec<(String, Vec<String>)>,
    },
}

const SUPPORTED: &str = "the serde shim derives only structs with named fields and enums \
     under #[serde(tag = \"...\", rename_all = \"snake_case\")] whose variants all have \
     named fields";

fn is_punct(t: Option<&TokenTree>, c: char) -> bool {
    matches!(t, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn ident_str(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

fn brace_group(t: Option<&TokenTree>) -> Option<&Group> {
    match t {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Some(g),
        _ => None,
    }
}

/// Advances past any `#[...]` outer attributes.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) {
    while is_punct(toks.get(*i), '#') {
        // `#` then a bracket group; inner attributes (`#![...]`) do not occur
        // in derive input.
        *i += 2;
    }
}

/// Advances past the container's outer attributes and returns the options
/// of its `#[serde(...)]` attributes as `(key, "value")` pairs (`None` for
/// an option not of that form).
fn serde_options(toks: &[TokenTree], i: &mut usize) -> Vec<(String, Option<String>)> {
    let mut out = Vec::new();
    while is_punct(toks.get(*i), '#') {
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            if matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
                if let Some(TokenTree::Group(args)) = inner.get(1) {
                    let args: Vec<TokenTree> = args.stream().into_iter().collect();
                    for kv in args.split(|t| is_punct(Some(t), ',')) {
                        let key = kv.first().map(ToString::to_string).unwrap_or_default();
                        let value = match kv {
                            [_, TokenTree::Punct(eq), TokenTree::Literal(lit)]
                                if eq.as_char() == '=' =>
                            {
                                Some(lit.to_string().trim_matches('"').to_owned())
                            }
                            _ => None,
                        };
                        out.push((key, value));
                    }
                }
            }
        }
        *i += 2;
    }
    out
}

/// Converts a `CamelCase` variant name to `snake_case`.
fn snake_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (k, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if k > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// Advances past `pub` / `pub(crate)` / `pub(in ...)`.
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if matches!(toks.get(*i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        *i += 1;
        if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Advances past tokens until a top-level `,` (consumed) or the end,
/// tracking `<...>` nesting so commas inside generic arguments don't split.
fn skip_until_comma(toks: &[TokenTree], i: &mut usize) {
    let mut angle_depth: i32 = 0;
    while *i < toks.len() {
        if let TokenTree::Punct(p) = &toks[*i] {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *i += 1;
                    return;
                }
                _ => {}
            }
        }
        *i += 1;
    }
}

/// Parses `name: Type, ...` fields from a brace group.
fn parse_named_fields(g: &Group) -> Vec<String> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        let Some(tok) = toks.get(i) else { break };
        let name = ident_str(tok)
            .unwrap_or_else(|| panic!("serde shim derive: expected field name, found {tok}"));
        i += 1;
        assert!(
            is_punct(toks.get(i), ':'),
            "serde shim derive: expected `:` after field `{name}`"
        );
        i += 1;
        skip_until_comma(&toks, &mut i);
        out.push(name);
    }
    out
}

/// Parses the variants of a tagged enum: each must have named fields.
fn parse_variants(g: &Group, ty: &str) -> Vec<(String, Vec<String>)> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        let Some(tok) = toks.get(i) else { break };
        let name = ident_str(tok)
            .unwrap_or_else(|| panic!("serde shim derive: expected variant name, found {tok}"));
        let fields = brace_group(toks.get(i + 1)).unwrap_or_else(|| {
            panic!("serde shim derive: variant `{ty}::{name}` has no named fields; {SUPPORTED}")
        });
        out.push((name, parse_named_fields(fields)));
        i += 2;
        if is_punct(toks.get(i), ',') {
            i += 1;
        }
    }
    out
}

/// Parses the derive input into the type's name and [`Shape`], panicking
/// (a compile error naming the type) on any shape the shim does not
/// support.
fn parse_shape(input: TokenStream) -> (String, Shape) {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let options = serde_options(&toks, &mut i);
    skip_vis(&toks, &mut i);
    let kw = ident_str(&toks[i]).expect("serde shim derive: expected `struct` or `enum`");
    let name = ident_str(&toks[i + 1]).expect("serde shim derive: expected type name");
    let (mut tag, mut rename_all) = (None, None);
    for (key, value) in options {
        match (key.as_str(), value) {
            ("tag", Some(v)) => tag = Some(v),
            ("rename_all", Some(v)) => rename_all = Some(v),
            _ => panic!(
                "serde shim derive: `{name}` has unsupported #[serde({key} ...)]; {SUPPORTED}"
            ),
        }
    }
    let body = brace_group(toks.get(i + 2));
    let shape = match (kw.as_str(), body, tag, rename_all.as_deref()) {
        ("struct", Some(g), None, None) => Shape::Struct(parse_named_fields(g)),
        ("enum", Some(g), Some(tag), Some("snake_case")) => Shape::Tagged {
            tag,
            variants: parse_variants(g, &name),
        },
        _ => panic!("serde shim derive: `{name}` is not supported; {SUPPORTED}"),
    };
    (name, shape)
}

/// `("key", <value expr>),` — one object entry in the expansion.
fn entry(key: &str, value: &str) -> String {
    format!("(::std::string::String::from(\"{key}\"), {value}),")
}

/// Derives the shim's `Serialize` trait.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_shape(input);
    let body = match &shape {
        Shape::Struct(fields) => {
            let entries: String = fields
                .iter()
                .map(|f| entry(f, &format!("::serde::Serialize::to_value(&self.{f})")))
                .collect();
            format!("::serde::Value::Object(::std::vec![{entries}])")
        }
        Shape::Tagged { tag, variants } => {
            let mut arms = String::new();
            for (vn, fields) in variants {
                let tag_entry = entry(
                    tag,
                    &format!(
                        "::serde::Value::Str(::std::string::String::from(\"{}\"))",
                        snake_case(vn)
                    ),
                );
                let entries: String = fields
                    .iter()
                    .map(|f| entry(f, &format!("::serde::Serialize::to_value({f})")))
                    .collect();
                let _ = write!(
                    arms,
                    "{name}::{vn} {{ {} }} => \
                     ::serde::Value::Object(::std::vec![{tag_entry}{entries}]),",
                    fields.join(", ")
                );
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde shim derive: generated invalid Serialize impl")
}

/// `field: <from_value of the object's field>,` initializers naming `ty`
/// in missing-field errors.
fn field_inits(fields: &[String], ty: &str) -> String {
    fields
        .iter()
        .map(|f| {
            format!(
                "{f}: ::serde::Deserialize::from_value(\
                 ::serde::__get_field(__v, \"{f}\", \"{ty}\")?)?,"
            )
        })
        .collect()
}

/// Derives the shim's `Deserialize` trait.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (name, shape) = parse_shape(input);
    let body = match &shape {
        Shape::Struct(fields) => {
            format!(
                "::std::result::Result::Ok({name} {{ {} }})",
                field_inits(fields, &name)
            )
        }
        Shape::Tagged { tag, variants } => {
            // The tag key selects the variant and the remaining keys of the
            // *same* object are its fields.
            let mut arms = String::new();
            for (vn, fields) in variants {
                let _ = write!(
                    arms,
                    "\"{}\" => ::std::result::Result::Ok({name}::{vn} {{ {} }}),",
                    snake_case(vn),
                    field_inits(fields, &format!("{name}::{vn}"))
                );
            }
            format!(
                "match __v {{\n\
                     ::serde::Value::Object(_) => {{\n\
                         match ::serde::__get_field(__v, \"{tag}\", \"{name}\")? {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {arms}\n\
                                 __other => ::std::result::Result::Err(::serde::DeError::msg(\
                                     ::std::format!(\"unknown {name} variant `{{__other}}`\"))),\n\
                             }},\n\
                             __other => ::serde::__type_error(\
                                 \"string `{tag}` tag for {name}\", __other),\n\
                         }}\n\
                     }}\n\
                     __other => ::serde::__type_error(\"object for enum {name}\", __other),\n\
                 }}"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) \
                 -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde shim derive: generated invalid Deserialize impl")
}
