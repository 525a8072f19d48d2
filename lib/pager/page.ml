type t = bytes

let header_size = 13
let kind_free = 0

let create ~size =
  if size < 64 then invalid_arg "Page.create: size too small";
  Bytes.make size '\000'

let get_u8 p off = Char.code (Bytes.get p off)
let set_u8 p off v = Bytes.set p off (Char.chr (v land 0xFF))

let get_u16 p off = Bytes.get_uint16_be p off
let set_u16 p off v = Bytes.set_uint16_be p off v

let get_u32 p off = Int32.to_int (Bytes.get_int32_be p off) land 0xFFFFFFFF
let set_u32 p off v = Bytes.set_int32_be p off (Int32.of_int v)

let get_i64 p off = Bytes.get_int64_be p off
let set_i64 p off v = Bytes.set_int64_be p off v

let get_key p off = Int64.to_int (get_i64 p off)
let set_key p off k = set_i64 p off (Int64.of_int k)

let kind p = get_u8 p 0
let set_kind p k = set_u8 p 0 k

let torn_prefix = 5

let checksum p = get_u32 p 1
let set_checksum p v = set_u32 p 1 v

let lsn p = get_i64 p 5
let set_lsn p v = set_i64 p 5 v

(* A word-at-a-time hash over everything past the checksum field — the page
   LSN included.  Covering the LSN is what makes torn writes recoverable: a
   tear that lands only the prefix (kind + checksum) leaves the old (LSN,
   body) pair intact, so the survivor self-describes how far the log had been
   applied to it and redo can resume from exactly there.

   Each 64-bit little-endian word [w] of [[torn_prefix, size)] is absorbed as
   [h <- xorshift ((h xor w) * K)]; the bytes past the last whole word are
   packed into one final word together with their count.  Every step is a
   bijection of [h] for a fixed word and of the word for a fixed [h], so
   changing any bits of one word always changes the 64-bit state; a
   finalizer mixes it and folds it to 32 bits.  0 is mapped to 1 so that a
   stored checksum of 0 can keep its meaning of "never stamped" (virgin
   pages, images written outside the buffer pool). *)
let mix_k = 0x9E3779B97F4A7C15L

let[@inline] absorb h w =
  let h = Int64.mul (Int64.logxor h w) mix_k in
  Int64.logxor h (Int64.shift_right_logical h 29)

let body_checksum p =
  let size = Bytes.length p in
  let words = (size - torn_prefix) / 8 in
  let h = ref 0x243F6A8885A308D3L in
  for i = 0 to words - 1 do
    h := absorb !h (Bytes.get_int64_le p (torn_prefix + (8 * i)))
  done;
  let tail = torn_prefix + (8 * words) in
  let last = ref (size - tail) in
  for i = tail to size - 1 do
    last := (!last lsl 8) lor Char.code (Bytes.unsafe_get p i)
  done;
  let h = absorb !h (Int64.of_int !last) in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 32) in
  let c = Int64.to_int h land 0xFFFFFFFF in
  if c = 0 then 1 else c

let blit ~src ~src_off ~dst ~dst_off ~len = Bytes.blit src src_off dst dst_off len

let sub p off len = Bytes.sub_string p off len

let fill p off len c = Bytes.fill p off len c

let copy_into ~src ~dst =
  if Bytes.length src <> Bytes.length dst then
    invalid_arg "Page.copy_into: size mismatch";
  Bytes.blit src 0 dst 0 (Bytes.length src)

let equal = Bytes.equal
