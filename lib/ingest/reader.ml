(** The block reader every capture format reads through: one reusable
    buffer over the input channel, parsed and decoded in place. *)

exception Format_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

type t = {
  ic : in_channel;
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unconsumed byte *)
  mutable lim : int;  (* end of the bytes read so far *)
}

(* The channel's own buffer size: a refill is one read of it. *)
let block_size = 65536

let create ic = { ic; buf = Bytes.create block_size; pos = 0; lim = 0 }

let buffer t = t.buf
let pos t = t.pos
let advance t n = t.pos <- t.pos + n

(* Read into the free tail until [n] bytes are unconsumed or the input
   ends.  Callers leave room: [pos + n <= Bytes.length buf]. *)
let rec fill t n =
  t.lim - t.pos >= n
  ||
  match input t.ic t.buf t.lim (Bytes.length t.buf - t.lim) with
  | 0 -> false
  | k ->
      t.lim <- t.lim + k;
      fill t n

let ensure t n =
  t.lim - t.pos >= n
  || begin
       if t.pos + n > Bytes.length t.buf then begin
         (* Move the unconsumed tail to the front; a record larger than
            the buffer is the only thing that grows it. *)
         let have = t.lim - t.pos in
         let dst = if n > Bytes.length t.buf then Bytes.create n else t.buf in
         Bytes.blit t.buf t.pos dst 0 have;
         t.buf <- dst;
         t.pos <- 0;
         t.lim <- have
       end;
       fill t n
     end

type frame = {
  mutable ts : float;
  mutable off : int;
  mutable len : int;
  mutable orig_len : int;
  mutable linktype : int;
}

let frame () = { ts = 0.0; off = 0; len = 0; orig_len = 0; linktype = 0 }

type step = Frame | Truncated | End

let cut t = if t.lim = t.pos then End else Truncated
