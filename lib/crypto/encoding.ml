(* Canonical embedding via twist + FFT.

   Evaluating m(X) at all odd powers of the 2n-th root ζ reduces to a plain
   FFT: with w_k = m_k·ζ^k, FFT_n(w)_t = Σ_k m_k e^{iπk(2t+1)/n} = m(ζ^{2t+1}).
   Decoding picks out the orbit of 5 (slot j ↦ exponent 5^j mod 2n); encoding
   writes slot values and their conjugates (orbit of −5^j), inverts the FFT
   and removes the twist, which yields real coefficients. *)

type ctx = {
  n : int;
  slots : int;
  slot_to_t : int array; (* slot j -> FFT bin of exponent 5^j mod 2n *)
  conj_to_t : int array; (* slot j -> FFT bin of exponent -(5^j) mod 2n *)
  twist_re : float array; (* e^{iπk/n}, k < n *)
  twist_im : float array;
}

let make ~n =
  if n < 4 || n land (n - 1) <> 0 then invalid_arg "Encoding.make: n must be a power of two >= 4";
  let slots = n / 2 in
  let two_n = 2 * n in
  let slot_to_t = Array.make slots 0 in
  let conj_to_t = Array.make slots 0 in
  let e = ref 1 in
  for j = 0 to slots - 1 do
    slot_to_t.(j) <- (!e - 1) / 2;
    conj_to_t.(j) <- (two_n - !e - 1) / 2;
    e := !e * 5 mod two_n
  done;
  let twist_re = Array.init n (fun k -> cos (Float.pi *. float_of_int k /. float_of_int n)) in
  let twist_im = Array.init n (fun k -> sin (Float.pi *. float_of_int k /. float_of_int n)) in
  { n; slots; slot_to_t; conj_to_t; twist_re; twist_im }

let n ctx = ctx.n
let slots ctx = ctx.slots

(* Bounded LRU memo shared by [galois_element] and [automorphism_index]:
   both are pure, both are re-derived per rotation by every executed
   rotation, and the working set (distinct (n, r) / (n, g) pairs of one
   deployment) is tiny. Guarded by a mutex — serving workers are domains.
   Eviction scans for the stalest entry; at [capacity] 64 that scan is
   cheaper than what one saved [automorphism_index] call allocates. *)
module Lru = struct
  type ('k, 'v) t = {
    capacity : int;
    tbl : ('k, 'v * int ref) Hashtbl.t;
    mutable tick : int;
    lock : Mutex.t;
  }

  let create capacity = { capacity; tbl = Hashtbl.create 89; tick = 0; lock = Mutex.create () }

  let find_or_add t key compute =
    Mutex.protect t.lock (fun () ->
        t.tick <- t.tick + 1;
        match Hashtbl.find_opt t.tbl key with
        | Some (v, stamp) ->
            stamp := t.tick;
            v
        | None ->
            let v = compute () in
            if Hashtbl.length t.tbl >= t.capacity then begin
              let victim = ref None in
              Hashtbl.iter
                (fun k (_, stamp) ->
                  match !victim with
                  | Some (_, s) when s <= !stamp -> ()
                  | _ -> victim := Some (k, !stamp))
                t.tbl;
              match !victim with Some (k, _) -> Hashtbl.remove t.tbl k | None -> ()
            end;
            Hashtbl.add t.tbl key (v, ref t.tick);
            v)
end

let galois_memo : (int * int, int) Lru.t = Lru.create 64
let automorphism_memo : (int * int, (int * bool) array) Lru.t = Lru.create 64
let ntt_automorphism_memo : (int * int, int array) Lru.t = Lru.create 64

let galois_element ctx r =
  let two_n = 2 * ctx.n in
  let r = ((r mod ctx.slots) + ctx.slots) mod ctx.slots in
  Lru.find_or_add galois_memo (ctx.n, r) (fun () ->
      let g = ref 1 in
      for _ = 1 to r do
        g := !g * 5 mod two_n
      done;
      !g)

let conj_element ctx = (2 * ctx.n) - 1

let decode ctx ~scale coeffs =
  if Array.length coeffs <> ctx.n then invalid_arg "Encoding.decode: wrong length";
  let re = Array.init ctx.n (fun k -> coeffs.(k) *. ctx.twist_re.(k)) in
  let im = Array.init ctx.n (fun k -> coeffs.(k) *. ctx.twist_im.(k)) in
  Fft.forward ~re ~im;
  let zre = Array.make ctx.slots 0.0 and zim = Array.make ctx.slots 0.0 in
  for j = 0 to ctx.slots - 1 do
    let t = ctx.slot_to_t.(j) in
    zre.(j) <- re.(t) /. scale;
    zim.(j) <- im.(t) /. scale
  done;
  (zre, zim)

let encode ctx ~scale ~re:zre ~im:zim =
  let get arr j = if j < Array.length arr then arr.(j) else 0.0 in
  let re = Array.make ctx.n 0.0 and im = Array.make ctx.n 0.0 in
  for j = 0 to ctx.slots - 1 do
    let t = ctx.slot_to_t.(j) and t' = ctx.conj_to_t.(j) in
    re.(t) <- get zre j;
    im.(t) <- get zim j;
    re.(t') <- get zre j;
    im.(t') <- -.get zim j
  done;
  Fft.inverse ~re ~im;
  (* untwist: m_k = w_k · e^{-iπk/n}; the imaginary part cancels by
     conjugate symmetry, so we keep only the real component. *)
  Array.init ctx.n (fun k -> ((re.(k) *. ctx.twist_re.(k)) +. (im.(k) *. ctx.twist_im.(k))) *. scale)

let automorphism_index ~n ~g =
  if g land 1 = 0 then invalid_arg "Encoding.automorphism_index: g must be odd";
  let two_n = 2 * n in
  let g = ((g mod two_n) + two_n) mod two_n in
  Lru.find_or_add automorphism_memo (n, g) (fun () ->
      Array.init n (fun k ->
          let e = k * g mod two_n in
          if e < n then (e, false) else (e - n, true)))

(* The NTT (lib/crypto/ntt.ml) leaves the evaluation at psi^(2·brev(i)+1) in
   position i. Since m(X^g) evaluated at psi^e is m evaluated at psi^(g·e),
   the automorphism permutes evaluation positions and needs no sign. *)
let ntt_automorphism_index ~n ~g =
  if g land 1 = 0 then invalid_arg "Encoding.ntt_automorphism_index: g must be odd";
  let two_n = 2 * n in
  let g = ((g mod two_n) + two_n) mod two_n in
  let bits =
    let rec loop k acc = if k <= 1 then acc else loop (k lsr 1) (acc + 1) in
    loop n 0
  in
  let brev x =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if (x lsr b) land 1 = 1 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  Lru.find_or_add ntt_automorphism_memo (n, g) (fun () ->
      Array.init n (fun i ->
          let e = ((2 * brev i) + 1) * g mod two_n in
          brev ((e - 1) / 2)))
