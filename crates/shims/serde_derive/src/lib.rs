//! `#[derive(Serialize, Deserialize)]` for the in-tree serde shim.
//!
//! Parses the item's token stream directly (no `syn`/`quote`; the
//! workspace builds offline with zero external crates) and emits impls of
//! the shim's `to_value`/`from_value` traits. Supports what the workspace
//! uses: plain structs with named fields, and enums whose variants are
//! unit-like or carry exactly one unnamed field.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What we learned about the item the derive is attached to.
enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<(String, usize)>,
    },
}

/// Skips `#[...]` attribute pairs at the current position.
fn skip_attributes(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    loop {
        match iter.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                match iter.peek() {
                    Some(TokenTree::Punct(p)) if p.as_char() == '!' => {
                        iter.next();
                    }
                    _ => {}
                }
                // The bracket group of the attribute.
                iter.next();
            }
            _ => return,
        }
    }
}

/// Skips a `pub` / `pub(...)` visibility marker.
fn skip_visibility(iter: &mut std::iter::Peekable<proc_macro::token_stream::IntoIter>) {
    if let Some(TokenTree::Ident(id)) = iter.peek() {
        if id.to_string() == "pub" {
            iter.next();
            if let Some(TokenTree::Group(g)) = iter.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    iter.next();
                }
            }
        }
    }
}

fn parse_item(input: TokenStream) -> Item {
    let mut iter = input.into_iter().peekable();
    skip_attributes(&mut iter);
    skip_visibility(&mut iter);

    let kind = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected `struct` or `enum`, got {other:?}"),
    };
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("derive: expected item name, got {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = iter.peek() {
        if p.as_char() == '<' {
            panic!("derive shim does not support generic types (on `{name}`)");
        }
    }
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g,
            Some(_) => continue, // e.g. `where` clauses (unused here)
            None => panic!("derive: `{name}` has no braced body"),
        }
    };

    match kind.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_fields(body.stream()),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(body.stream()),
        },
        other => panic!("derive: cannot derive for `{other}` items"),
    }
}

/// Field names of a named-field struct body.
fn parse_fields(body: TokenStream) -> Vec<String> {
    let mut iter = body.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        skip_attributes(&mut iter);
        skip_visibility(&mut iter);
        let field = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("derive: expected field name, got {other:?}"),
            None => break,
        };
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("derive: tuple structs unsupported (after `{field}`: {other:?})"),
        }
        fields.push(field);
        // Skip the type: everything until a top-level `,`. Generics like
        // `BTreeMap<K, V>` contain commas inside `<...>`, so track depth.
        let mut angle_depth = 0i32;
        for tok in iter.by_ref() {
            match tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    fields
}

/// `(variant name, field count)` pairs of an enum body.
fn parse_variants(body: TokenStream) -> Vec<(String, usize)> {
    let mut iter = body.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        skip_attributes(&mut iter);
        let name = match iter.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            Some(other) => panic!("derive: expected variant name, got {other:?}"),
            None => break,
        };
        let mut arity = 0usize;
        if let Some(TokenTree::Group(g)) = iter.peek() {
            match g.delimiter() {
                Delimiter::Parenthesis => {
                    // Count top-level comma-separated types.
                    let mut depth = 0i32;
                    let mut saw_any = false;
                    for tok in g.stream() {
                        saw_any = true;
                        match tok {
                            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => arity += 1,
                            _ => {}
                        }
                    }
                    if saw_any {
                        arity += 1;
                    }
                    iter.next();
                }
                Delimiter::Brace => panic!("derive shim: struct-like variant `{name}` unsupported"),
                _ => {}
            }
        }
        variants.push((name, arity));
        // Skip an optional `= discriminant` and the trailing comma.
        for tok in iter.by_ref() {
            if let TokenTree::Punct(p) = &tok {
                if p.as_char() == ',' {
                    break;
                }
            }
        }
    }
    variants
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let out = match parse_item(input) {
        Item::Struct { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|f| {
                    format!(
                        "__obj.push((\"{f}\".to_string(), \
                         ::serde::Serialize::to_value(&self.{f})));\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         let mut __obj: Vec<(String, ::serde::Value)> = Vec::new();\n\
                         {pushes}\
                         ::serde::Value::Object(__obj)\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, arity)| match arity {
                    0 => format!("{name}::{v} => ::serde::Value::Str(\"{v}\".to_string()),\n"),
                    1 => format!(
                        "{name}::{v}(__f0) => ::serde::Value::Object(vec![(\
                         \"{v}\".to_string(), ::serde::Serialize::to_value(__f0))]),\n"
                    ),
                    n => panic!("derive shim: variant {name}::{v} has {n} fields (max 1)"),
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{arms}}}\n\
                     }}\n\
                 }}"
            )
        }
    };
    out.parse()
        .expect("derive(Serialize): generated code must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let out = match parse_item(input) {
        Item::Struct { name, fields } => {
            let reads: String = fields
                .iter()
                .map(|f| format!("{f}: ::serde::from_field(__obj, \"{f}\", \"{name}\")?,\n"))
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> Result<Self, ::serde::DeError> {{\n\
                         let __obj = __v.as_object().ok_or_else(|| \
                             ::serde::DeError::expected(\"object\", \"{name}\", __v))?;\n\
                         Ok({name} {{\n{reads}}})\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, a)| *a == 0)
                .map(|(v, _)| format!("\"{v}\" => Ok({name}::{v}),\n"))
                .collect();
            let newtype_arms: String = variants
                .iter()
                .filter(|(_, a)| *a == 1)
                .map(|(v, _)| {
                    format!(
                        "\"{v}\" => Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(__inner)?)),\n"
                    )
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(__v: &::serde::Value) \
                         -> Result<Self, ::serde::DeError> {{\n\
                         match __v {{\n\
                             ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                                 {unit_arms}\
                                 __other => Err(::serde::DeError(format!(\
                                     \"unknown {name} variant '{{__other}}'\"))),\n\
                             }},\n\
                             ::serde::Value::Object(__o) if __o.len() == 1 => {{\n\
                                 let (__tag, __inner) = (&__o[0].0, &__o[0].1);\n\
                                 match __tag.as_str() {{\n\
                                     {newtype_arms}\
                                     __other => Err(::serde::DeError(format!(\
                                         \"unknown {name} variant '{{__other}}'\"))),\n\
                                 }}\n\
                             }}\n\
                             __other => Err(::serde::DeError::expected(\
                                 \"string or 1-entry object\", \"{name}\", __other)),\n\
                         }}\n\
                     }}\n\
                 }}"
            )
        }
    };
    out.parse()
        .expect("derive(Deserialize): generated code must parse")
}
