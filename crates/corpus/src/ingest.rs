//! Real-contract ingestion: ABI JSON + runtime-bytecode hex → a fuzzable
//! [`CompiledContract`].
//!
//! The toy-language pipeline produces contracts by compiling mini-Solidity
//! source; this module is the second front door, for contracts that exist
//! only as deployment artefacts. It parses the standard Solidity ABI JSON
//! array and a runtime-bytecode hex blob (the two files every build tool
//! emits) and synthesizes the same [`CompiledContract`] the compiler would
//! have produced — so the campaign layer, the edge index, the program cache
//! and the block-lowered interpreter treat ingested blobs exactly like
//! compiled toy contracts.
//!
//! No external crates are available offline, so both parsers are
//! hand-rolled: a minimal recursive-descent JSON reader covering the subset
//! ABI files use (objects, arrays, strings, numbers, booleans, null) and a
//! whitespace-tolerant hex decoder.
//!
//! ```
//! use mufuzz_corpus::ingest::ingest;
//!
//! let abi = r#"[{"type":"function","name":"set","inputs":[{"type":"uint256"}],
//!               "stateMutability":"nonpayable"}]"#;
//! // STOP-only runtime: a degenerate but valid target.
//! let contract = ingest("Tiny", abi, "0x00").unwrap();
//! assert_eq!(contract.compiled.abi.functions.len(), 1);
//! ```

use mufuzz_lang::ast::{Contract, Function, Param, Type, Visibility};
use mufuzz_lang::{
    compute_selector, CompiledContract, ContractAbi, FunctionAbi, FunctionInfo, ParamType,
    StorageLayout,
};
use std::fmt;

/// An error raised while parsing the ABI JSON or the bytecode hex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestError {
    /// Description of the problem.
    pub message: String,
}

impl IngestError {
    fn new(message: impl Into<String>) -> IngestError {
        IngestError {
            message: message.into(),
        }
    }
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ingest error: {}", self.message)
    }
}

impl std::error::Error for IngestError {}

/// The result of ingesting one ABI + bytecode pair.
#[derive(Clone, Debug)]
pub struct IngestedContract {
    /// The synthesized compiled contract, ready for `ContractHarness::new`.
    pub compiled: CompiledContract,
    /// Signatures of ABI functions that were skipped because a parameter
    /// type is outside the supported surface (tuples, nested arrays, ...).
    pub skipped: Vec<String>,
}

/// Ingest a contract from its ABI JSON array and runtime-bytecode hex.
///
/// Functions whose parameter types fall outside the supported surface
/// (`uint*`/`int*`/`address`/`bool`/`bytesN`/`bytes`/`string` and flat
/// arrays of the static ones) are skipped and reported in
/// [`IngestedContract::skipped`]; ingestion fails only when the ABI has no
/// usable function at all or either input does not parse.
pub fn ingest(
    name: &str,
    abi_json: &str,
    bytecode_hex: &str,
) -> Result<IngestedContract, IngestError> {
    let runtime = parse_hex_bytecode(bytecode_hex)?;
    if runtime.is_empty() {
        return Err(IngestError::new("empty runtime bytecode"));
    }
    let (abi, skipped) = parse_abi_json(abi_json)?;
    if abi.functions.is_empty() {
        return Err(IngestError::new(
            "ABI contains no function with supported parameter types",
        ));
    }

    // Synthesize the AST the static analyses expect. The bodies are empty
    // (no source to analyse), so data-flow planning degrades gracefully to
    // random sequence orderings; parameter types map to the closest
    // toy-language value type so arity and payability survive.
    let contract = Contract {
        name: name.to_string(),
        functions: abi
            .functions
            .iter()
            .map(|f| Function {
                name: f.name.clone(),
                params: f
                    .inputs
                    .iter()
                    .enumerate()
                    .map(|(i, ty)| Param {
                        name: format!("arg{i}"),
                        ty: ast_type_for(ty),
                    })
                    .collect(),
                visibility: Visibility::Public,
                payable: f.payable,
                returns: None,
                body: vec![],
            })
            .collect(),
        ..Default::default()
    };

    // Function pc ranges are unknown without source: empty ranges make
    // `function_at_pc` miss, and pc attribution falls back to the entered
    // selector (which the trace records), so findings still name functions.
    let functions = abi
        .functions
        .iter()
        .map(|f| FunctionInfo {
            name: f.name.clone(),
            selector: Some(f.selector),
            entry_pc: 0,
            end_pc: 0,
            payable: f.payable,
        })
        .collect();

    Ok(IngestedContract {
        compiled: CompiledContract {
            name: name.to_string(),
            runtime,
            // No constructor blob: deployment installs the runtime directly
            // and runs an empty constructor, which halts successfully.
            constructor: vec![],
            abi,
            layout: StorageLayout::for_contract(&contract),
            contract,
            functions,
        },
        skipped,
    })
}

/// Map an ABI parameter type to the closest toy-language value type (the
/// synthesized AST only feeds arity-level analyses, so word-shaped is fine).
fn ast_type_for(ty: &ParamType) -> Type {
    match ty {
        ParamType::Address => Type::Address,
        ParamType::Bool => Type::Bool,
        _ => Type::Uint256,
    }
}

/// Decode a hex bytecode blob: optional `0x` prefix, whitespace tolerated,
/// must have even length.
pub fn parse_hex_bytecode(hex: &str) -> Result<Vec<u8>, IngestError> {
    let cleaned: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
    let digits = cleaned.strip_prefix("0x").unwrap_or(&cleaned);
    if !digits.len().is_multiple_of(2) {
        return Err(IngestError::new("odd number of hex digits in bytecode"));
    }
    let nibble = |c: u8| -> Result<u8, IngestError> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(IngestError::new(format!(
                "invalid hex digit {:?} in bytecode",
                c as char
            ))),
        }
    };
    digits
        .as_bytes()
        .chunks(2)
        .map(|pair| Ok(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// Parse a Solidity ABI JSON array into a [`ContractAbi`] plus the list of
/// skipped (unsupported) function signatures.
pub fn parse_abi_json(text: &str) -> Result<(ContractAbi, Vec<String>), IngestError> {
    let json = JsonValue::parse(text)?;
    let JsonValue::Array(entries) = json else {
        return Err(IngestError::new("ABI JSON must be a top-level array"));
    };
    let mut functions = Vec::new();
    let mut skipped = Vec::new();
    for entry in &entries {
        let JsonValue::Object(fields) = entry else {
            return Err(IngestError::new("ABI entry is not an object"));
        };
        // Constructors, events, errors, fallback and receive entries carry
        // no dispatchable selector; only "type":"function" matters here
        // (and a missing "type" defaults to function, as in early ABIs).
        let kind = get_str(fields, "type").unwrap_or("function");
        if kind != "function" {
            continue;
        }
        let name = get_str(fields, "name")
            .ok_or_else(|| IngestError::new("function entry without a name"))?
            .to_string();
        let raw_inputs = match lookup(fields, "inputs") {
            Some(JsonValue::Array(inputs)) => inputs.as_slice(),
            None => &[],
            Some(_) => return Err(IngestError::new("function inputs is not an array")),
        };
        let mut inputs = Vec::with_capacity(raw_inputs.len());
        let mut unsupported = None;
        for input in raw_inputs {
            let JsonValue::Object(param) = input else {
                return Err(IngestError::new("function input is not an object"));
            };
            let type_name = get_str(param, "type")
                .ok_or_else(|| IngestError::new("function input without a type"))?;
            match parse_param_type(type_name) {
                Some(ty) => inputs.push(ty),
                None => {
                    unsupported = Some(type_name.to_string());
                    break;
                }
            }
        }
        if let Some(ty) = unsupported {
            skipped.push(format!("{name}({ty},...)"));
            continue;
        }
        // Modern ABIs carry "stateMutability"; legacy ones a "payable" bool.
        let payable = match get_str(fields, "stateMutability") {
            Some(m) => m == "payable",
            None => matches!(lookup(fields, "payable"), Some(JsonValue::Bool(true))),
        };
        let signature = {
            let params: Vec<String> = inputs.iter().map(ParamType::name).collect();
            format!("{name}({})", params.join(","))
        };
        functions.push(FunctionAbi {
            name,
            inputs,
            payable,
            selector: compute_selector(&signature),
        });
    }
    Ok((ContractAbi { functions }, skipped))
}

/// Map a canonical ABI type name to a [`ParamType`], or `None` when the
/// type is outside the supported surface.
pub fn parse_param_type(name: &str) -> Option<ParamType> {
    if let Some(elem) = name.strip_suffix("[]") {
        let inner = parse_param_type(elem)?;
        // Flat arrays of static one-word elements only: nested arrays and
        // arrays of dynamic types are out of surface.
        if inner.is_dynamic() || matches!(inner, ParamType::Array(_)) {
            return None;
        }
        return Some(ParamType::Array(Box::new(inner)));
    }
    match name {
        "address" => Some(ParamType::Address),
        "bool" => Some(ParamType::Bool),
        "bytes" => Some(ParamType::Bytes),
        "string" => Some(ParamType::Str),
        _ => {
            if let Some(bits) = name.strip_prefix("uint") {
                return int_width_ok(bits).then_some(ParamType::Uint256);
            }
            if let Some(bits) = name.strip_prefix("int") {
                return int_width_ok(bits).then_some(ParamType::Int256);
            }
            if let Some(n) = name.strip_prefix("bytes") {
                let n: u8 = n.parse().ok()?;
                return (1..=32).contains(&n).then_some(ParamType::FixedBytes(n));
            }
            None
        }
    }
}

/// `uintN`/`intN` width suffix check: empty (alias for 256) or a multiple of
/// 8 in 8..=256. Narrow integers are widened to their 256-bit word form,
/// which is how they travel in calldata anyway.
fn int_width_ok(bits: &str) -> bool {
    if bits.is_empty() {
        return true;
    }
    matches!(bits.parse::<u32>(), Ok(n) if n % 8 == 0 && (8..=256).contains(&n))
}

fn lookup<'j>(fields: &'j [(String, JsonValue)], key: &str) -> Option<&'j JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str<'j>(fields: &'j [(String, JsonValue)], key: &str) -> Option<&'j str> {
    match lookup(fields, key) {
        Some(JsonValue::String(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// A parsed JSON value (the subset ABI and fixture files use).
///
/// Public so other fixture-driven consumers (the conformance-vector
/// runner in particular) can reuse the same dependency-free parser.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `{...}` — fields in source order (duplicate keys keep the first).
    Object(Vec<(String, JsonValue)>),
    /// `[...]`.
    Array(Vec<JsonValue>),
    /// `"..."` with standard escapes.
    String(String),
    /// Any numeric literal, widened to `f64`.
    Number(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// Parse a complete JSON document (trailing bytes are an error).
    ///
    /// Arrays and objects may nest at most 128 levels deep; deeper input is
    /// an error rather than a stack overflow.
    pub fn parse(text: &str) -> Result<JsonValue, IngestError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(IngestError::new(format!(
                "trailing characters after JSON value at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }

    /// Object field lookup by key; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => lookup(fields, key),
            _ => None,
        }
    }

    /// The object's fields in source order, if this is an object.
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// How deeply [`JsonValue::parse`] lets arrays and objects nest. Each level
/// is a few stack frames of recursion, so the bound keeps hostile input from
/// overflowing a thread's stack.
const MAX_JSON_DEPTH: usize = 128;

/// Minimal recursive-descent JSON parser.
struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), IngestError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(IngestError::new(format!(
                "expected {:?} at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<JsonValue, IngestError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(IngestError::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Parse one array or object one level deeper, refusing to pass
    /// [`MAX_JSON_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, IngestError>,
    ) -> Result<JsonValue, IngestError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(IngestError::new(format!(
                "JSON nests deeper than {MAX_JSON_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, IngestError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(IngestError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, IngestError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(IngestError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, IngestError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .peek()
                        .ok_or_else(|| IngestError::new("unterminated escape in JSON string"))?;
                    self.pos += 1;
                    match escaped {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| IngestError::new("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(IngestError::new(format!(
                                "unsupported escape \\{}",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences are
                    // passed through unchanged).
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| IngestError::new("invalid UTF-8 in JSON string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
                None => return Err(IngestError::new("unterminated JSON string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, IngestError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JsonValue::Number)
            .ok_or_else(|| IngestError::new(format!("bad number at byte {start}")))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, IngestError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(IngestError::new(format!(
                "bad literal at byte {}",
                self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ERC20_ISH: &str = r#"[
        {"type":"constructor","inputs":[{"name":"supply","type":"uint256"}]},
        {"type":"event","name":"Transfer","inputs":[]},
        {"type":"function","name":"transfer","stateMutability":"nonpayable",
         "inputs":[{"name":"to","type":"address"},{"name":"amount","type":"uint256"}]},
        {"type":"function","name":"deposit","stateMutability":"payable","inputs":[]},
        {"type":"function","name":"batch","stateMutability":"nonpayable",
         "inputs":[{"name":"targets","type":"address[]"},{"name":"data","type":"bytes"}]},
        {"type":"function","name":"weird","stateMutability":"nonpayable",
         "inputs":[{"name":"t","type":"tuple","components":[]}]}
    ]"#;

    #[test]
    fn abi_json_parses_functions_and_skips_unsupported() {
        let (abi, skipped) = parse_abi_json(ERC20_ISH).unwrap();
        assert_eq!(abi.functions.len(), 3);
        // The canonical reference selector proves signature derivation.
        let transfer = abi.function("transfer").unwrap();
        assert_eq!(transfer.selector, [0xa9, 0x05, 0x9c, 0xbb]);
        assert!(!transfer.payable);
        assert!(abi.function("deposit").unwrap().payable);
        let batch = abi.function("batch").unwrap();
        assert_eq!(
            batch.inputs,
            vec![
                ParamType::Array(Box::new(ParamType::Address)),
                ParamType::Bytes
            ]
        );
        assert_eq!(skipped, vec!["weird(tuple,...)".to_string()]);
    }

    #[test]
    fn legacy_payable_flag_is_honoured() {
        let (abi, _) =
            parse_abi_json(r#"[{"type":"function","name":"buy","payable":true,"inputs":[]}]"#)
                .unwrap();
        assert!(abi.function("buy").unwrap().payable);
    }

    #[test]
    fn param_type_surface() {
        assert_eq!(parse_param_type("uint256"), Some(ParamType::Uint256));
        assert_eq!(parse_param_type("uint8"), Some(ParamType::Uint256));
        assert_eq!(parse_param_type("uint"), Some(ParamType::Uint256));
        assert_eq!(parse_param_type("int128"), Some(ParamType::Int256));
        assert_eq!(parse_param_type("bytes4"), Some(ParamType::FixedBytes(4)));
        assert_eq!(parse_param_type("bytes32"), Some(ParamType::FixedBytes(32)));
        assert_eq!(parse_param_type("string"), Some(ParamType::Str));
        assert_eq!(
            parse_param_type("uint256[]"),
            Some(ParamType::Array(Box::new(ParamType::Uint256)))
        );
        // Out of surface: odd widths, oversized bytesN, nested/dynamic arrays.
        assert_eq!(parse_param_type("uint7"), None);
        assert_eq!(parse_param_type("bytes33"), None);
        assert_eq!(parse_param_type("uint256[][]"), None);
        assert_eq!(parse_param_type("bytes[]"), None);
        assert_eq!(parse_param_type("tuple"), None);
    }

    #[test]
    fn hex_decoding_tolerates_prefix_and_whitespace() {
        assert_eq!(parse_hex_bytecode("0x6001600201").unwrap().len(), 5);
        assert_eq!(
            parse_hex_bytecode(" 60 01\n60FF\t00 ").unwrap(),
            vec![0x60, 0x01, 0x60, 0xff, 0x00]
        );
        assert!(parse_hex_bytecode("0x123").is_err());
        assert!(parse_hex_bytecode("zz").is_err());
    }

    #[test]
    fn ingest_builds_a_compiled_contract() {
        let contract = ingest("Ingested", ERC20_ISH, "0x600060005500").unwrap();
        assert_eq!(contract.compiled.name, "Ingested");
        assert_eq!(contract.compiled.runtime.len(), 6);
        assert!(contract.compiled.constructor.is_empty());
        assert_eq!(contract.compiled.abi.functions.len(), 3);
        // The synthesized AST mirrors the ABI arity so sequence planning and
        // payability checks behave.
        let ast_fn = contract.compiled.contract.function("transfer").unwrap();
        assert_eq!(ast_fn.params.len(), 2);
        assert!(ast_fn.visibility.is_callable());
        assert_eq!(contract.skipped.len(), 1);
    }

    #[test]
    fn ingest_rejects_empty_inputs() {
        assert!(ingest("X", "[]", "0x00").is_err());
        assert!(ingest("X", ERC20_ISH, "").is_err());
        assert!(ingest("X", "not json", "0x00").is_err());
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn json_nesting_is_bounded_at_128_levels() {
        assert!(JsonValue::parse(&nested_arrays(MAX_JSON_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested_arrays(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("at byte 128"), "{err}");
        // Objects count toward the same bound.
        let objects = r#"{"a":"#.repeat(MAX_JSON_DEPTH + 1) + "1" + &"}".repeat(MAX_JSON_DEPTH + 1);
        assert!(JsonValue::parse(&objects).is_err());
    }

    #[test]
    fn deeply_nested_json_is_rejected_on_a_small_stack() {
        // 10,000 levels overflowed a 2 MiB stack (the default for spawned
        // threads) before the nesting bound, aborting the whole process.
        let rejected = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| JsonValue::parse(&nested_arrays(10_000)).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(rejected);
    }
}
