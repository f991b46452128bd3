(** Seeded hash functions over integer key vectors.

    Programmable switches expose a small set of configurable hash units
    (CRC polynomials on Tofino); Newton's H module picks the algorithm and
    output range at rule-install time.  We model a family of independent
    hash functions indexed by [seed], built on a 64-bit mix (xxhash-style
    avalanche), and reduce to an arbitrary power-of-two or general range. *)

type t = { seed : int; range : int }

(** [create ~seed ~range] — hash values fall in [0, range). *)
let create ~seed ~range =
  if range <= 0 then invalid_arg "Hash.create: range must be positive";
  { seed; range }

let range t = t.range
let seed t = t.seed

(* The chain helpers are [@inline] so that, without flambda, the 64-bit
   accumulator stays an unboxed register value instead of an [Int64]
   block per step. *)
let[@inline] mix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

(** Hash a single int with a seed; full 62-bit positive output. *)
let hash_int ~seed v =
  let h =
    mix64 (Int64.logxor (Int64.of_int v) (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L))
  in
  Int64.to_int (Int64.shift_right_logical h 2)

let[@inline] chain_init seed = Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L

let[@inline] chain_step acc k =
  mix64 (Int64.add (Int64.logxor acc (Int64.of_int k)) 0x632BE59BD9B4E019L)

let[@inline] chain_fin acc = Int64.to_int (Int64.shift_right_logical (mix64 acc) 2)

(** Hash a key vector (e.g. masked operation keys) by chaining.  A
    [for] loop over a local [int64 ref], which the compiler keeps
    unboxed: the per-packet H module allocates nothing. *)
let hash_vector ~seed keys =
  let acc = ref (chain_init seed) in
  for i = 0 to Array.length keys - 1 do
    acc := chain_step !acc (Array.unsafe_get keys i)
  done;
  chain_fin !acc

(** [hash5 ~seed a b c d e = hash_vector ~seed [|a; b; c; d; e|]],
    without materialising the vector — the per-packet shard-assignment
    path hashes the 5-tuple once per packet at arena-build time, and
    the intermediate array is the only allocation on that path. *)
let hash5 ~seed a b c d e =
  chain_fin
    (chain_step
       (chain_step (chain_step (chain_step (chain_step (chain_init seed) a) b) c)
          d)
       e)

let apply t keys = hash_vector ~seed:t.seed keys mod t.range
let apply_int t v = hash_int ~seed:t.seed v mod t.range
