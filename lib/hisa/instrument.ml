(* HISA op counter, a hook on {!Hisa.intercept}: records an operation
   histogram plus the multiset of rotation amounts. The compiler's
   rotation-keys selection pass (§5.4) is this recorder around the value-free
   backend; the benches use it for op-count reporting. *)

type counters = {
  mutable encodes : int;
  mutable decodes : int;
  mutable encrypts : int;
  mutable decrypts : int;
  mutable adds : int;
  mutable plain_adds : int;
  mutable scalar_adds : int;
  mutable ct_muls : int;
  mutable plain_muls : int;
  mutable scalar_muls : int;
  mutable rescales : int;
  mutable rotation_counts : (int, int) Hashtbl.t;  (** left amount -> uses *)
}

let fresh_counters () =
  {
    encodes = 0;
    decodes = 0;
    encrypts = 0;
    decrypts = 0;
    adds = 0;
    plain_adds = 0;
    scalar_adds = 0;
    ct_muls = 0;
    plain_muls = 0;
    scalar_muls = 0;
    rescales = 0;
    rotation_counts = Hashtbl.create 32;
  }

(* Sorted so op-count reports and rotation-key listings are deterministic
   regardless of hash-table iteration order. *)
let distinct_rotations c =
  Hashtbl.fold (fun k _ acc -> k :: acc) c.rotation_counts [] |> List.sort compare

let total_rotations c = Hashtbl.fold (fun _ n acc -> acc + n) c.rotation_counts 0

let reset c =
  c.encodes <- 0;
  c.decodes <- 0;
  c.encrypts <- 0;
  c.decrypts <- 0;
  c.adds <- 0;
  c.plain_adds <- 0;
  c.scalar_adds <- 0;
  c.ct_muls <- 0;
  c.plain_muls <- 0;
  c.scalar_muls <- 0;
  c.rescales <- 0;
  Hashtbl.reset c.rotation_counts

let wrap (backend : Hisa.t) : Hisa.t * counters =
  let c = fresh_counters () in
  let module B = (val backend) in
  let record_rotation amount =
    let amount = ((amount mod B.slots) + B.slots) mod B.slots in
    if amount <> 0 then begin
      let cur = try Hashtbl.find c.rotation_counts amount with Not_found -> 0 in
      Hashtbl.replace c.rotation_counts amount (cur + 1)
    end
  in
  (* fused ops count as their components, and a hoisted [rot_many] as one
     rotation per amount, so op-count reports and the rotation-key
     selection pass see the same workload either way *)
  let count : Hisa.op -> unit = function
    | Encode -> c.encodes <- c.encodes + 1
    | Decode -> c.decodes <- c.decodes + 1
    | Encrypt -> c.encrypts <- c.encrypts + 1
    | Decrypt -> c.decrypts <- c.decrypts + 1
    | Rot_left k -> record_rotation k
    | Add -> c.adds <- c.adds + 1
    | Add_plain -> c.plain_adds <- c.plain_adds + 1
    | Add_scalar -> c.scalar_adds <- c.scalar_adds + 1
    | Mul -> c.ct_muls <- c.ct_muls + 1
    | Mul_plain -> c.plain_muls <- c.plain_muls + 1
    | Mul_scalar -> c.scalar_muls <- c.scalar_muls + 1
    | Fma_scalar ->
        c.scalar_muls <- c.scalar_muls + 1;
        c.adds <- c.adds + 1
    | Fma_plain ->
        c.plain_muls <- c.plain_muls + 1;
        c.adds <- c.adds + 1
    | Fma_rot r ->
        record_rotation r;
        c.adds <- c.adds + 1
    | Rot_many ks -> Array.iter record_rotation ks
    | Rescale x -> if x > 1 then c.rescales <- c.rescales + 1
  in
  (Hisa.intercept { around = (fun op _ run -> count op; run ()) } backend, c)
