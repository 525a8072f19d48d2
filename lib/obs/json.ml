(* Minimal hand-rolled JSON.  The observability subsystem must not pull in a
   JSON dependency.  Emission is Buffer-based and deterministic: field order
   is the call order, floats print with a fixed format.  The reader at the
   bottom exists for the benchmark's CI gates, which check the baselines the
   emitter wrote. *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

let int buf n = Buffer.add_string buf (string_of_int n)

(* JSON has no NaN/Infinity literals; consumers get [null] for anything
   non-finite.  Finite values must round-trip: try the shortest of %.15g /
   %.16g and fall back to %.17g (always exact for IEEE doubles).  OCaml's
   Printf is locale-independent — the decimal point is always '.'. *)
let float buf x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | FP_zero | FP_subnormal | FP_normal ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else
      let rec shortest p =
        if p > 17 then Printf.sprintf "%.17g" x
        else
          let s = Printf.sprintf "%.*g" p x in
          if float_of_string s = x then s else shortest (p + 1)
      in
      Buffer.add_string buf (shortest 15)

(* [obj buf [ ("k", fun buf -> ...) ]] — fields emitted in list order. *)
let obj buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, emit) ->
      if i > 0 then Buffer.add_char buf ',';
      string buf k;
      Buffer.add_char buf ':';
      emit buf)
    fields;
  Buffer.add_char buf '}'

let arr buf emits =
  Buffer.add_char buf '[';
  List.iteri
    (fun i emit ->
      if i > 0 then Buffer.add_char buf ',';
      emit buf)
    emits;
  Buffer.add_char buf ']'

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

(* A small recursive-descent reader for RFC 8259 JSON such as the writer
   above produces (surrogate-pair \u escapes are rejected; the writer never
   emits them).  Numbers without a fraction or exponent that fit an OCaml
   int become [Int], every other number [Float]; the writer prints
   integer-valued floats as integers, so consumers compare numbers through
   [to_float].  Raises [Failure] naming the byte offset. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = failwith (Printf.sprintf "Json.parse: %s at byte %d" what !pos) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' when !pos < n ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c && !pos < n then incr pos else fail (Printf.sprintf "expected %C" c) in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then begin
      pos := !pos + l;
      v
    end
    else fail "unknown literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          let code =
            if !pos + 4 <= n then int_of_string_opt ("0x" ^ String.sub s !pos 4) else None
          in
          (match code with
          | Some u when Uchar.is_valid u ->
            pos := !pos + 4;
            Buffer.add_utf_8_uchar b (Uchar.of_int u)
          | _ -> fail "bad \\u escape")
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) in
    match (if integral then int_of_string_opt lit else None) with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with Some x -> Float x | None -> fail "bad number")
  in
  (* [items close item] parses a comma-separated sequence up to [close]. *)
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          go acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (items '}' (fun () ->
             skip_ws ();
             let k = string_lit () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (items ']' value)
    | '"' -> String (string_lit ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float x -> Some x | _ -> None
