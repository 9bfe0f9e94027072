(* Arbitrary-precision signed integers on base-2^31 limbs.

   Invariants: [mag] is little-endian with no most-significant zero limb;
   [sign] is -1, 0 or 1 and is 0 exactly when [mag] is empty. Keeping limbs
   below 2^31 means limb products (< 2^62) and sums with carries stay within
   OCaml's 63-bit native ints. *)

type t = { sign : int; mag : int array }

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers                                                   *)
(* ------------------------------------------------------------------ *)

let mag_normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let make sign mag =
  let mag = mag_normalize mag in
  if Array.length mag = 0 then zero else { sign; mag }

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec loop i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else loop (i - 1) in
    loop (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = Stdlib.max la lb + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* Requires |a| >= |b|. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mag_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land limb_mask;
          carry := t lsr base_bits
        done;
        r.(i + lb) <- !carry
      end
    done;
    r
  end

let karatsuba_threshold = 24

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else if Stdlib.min la lb < karatsuba_threshold then mag_mul_school a b
  else begin
    (* Karatsuba: a = a1*B^m + a0, b = b1*B^m + b0. *)
    let m = (Stdlib.max la lb + 1) / 2 in
    let lo x = if Array.length x <= m then x else Array.sub x 0 m in
    let hi x = if Array.length x <= m then [||] else Array.sub x m (Array.length x - m) in
    let a0 = mag_normalize (lo a) and a1 = mag_normalize (hi a) in
    let b0 = mag_normalize (lo b) and b1 = mag_normalize (hi b) in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 =
      (* (a0+a1)(b0+b1) - z0 - z2 *)
      let s = mag_mul (mag_normalize (mag_add a0 a1)) (mag_normalize (mag_add b0 b1)) in
      mag_sub (mag_sub s (mag_normalize z0)) (mag_normalize z2)
    in
    let r = Array.make (la + lb + 1) 0 in
    let add_at ofs x =
      let carry = ref 0 in
      let lx = Array.length x in
      for i = 0 to lx - 1 do
        let s = r.(ofs + i) + x.(i) + !carry in
        r.(ofs + i) <- s land limb_mask;
        carry := s lsr base_bits
      done;
      let i = ref (ofs + lx) in
      while !carry <> 0 do
        let s = r.(!i) + !carry in
        r.(!i) <- s land limb_mask;
        carry := s lsr base_bits;
        incr i
      done
    in
    add_at 0 (mag_normalize z0);
    add_at m (mag_normalize z1);
    add_at (2 * m) (mag_normalize z2);
    r
  end

let mag_shift_left a k =
  let la = Array.length a in
  if la = 0 then [||]
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(limbs + i) <- v land limb_mask;
        carry := v lsr base_bits
      done;
      r.(limbs + la) <- !carry
    end;
    r
  end

let mag_shift_right a k =
  let la = Array.length a in
  let limbs = k / base_bits and bits = k mod base_bits in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if bits = 0 then Array.blit a limbs r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(limbs + i) lsr bits in
        let hi = if limbs + i + 1 < la then (a.(limbs + i + 1) lsl (base_bits - bits)) land limb_mask else 0 in
        r.(i) <- lo lor hi
      done;
    r
  end

let bits_of_limb v =
  let rec loop v acc = if v = 0 then acc else loop (v lsr 1) (acc + 1) in
  loop v 0

(* Knuth algorithm D on magnitudes; returns (quotient, remainder). *)
let mag_divmod u v =
  let lv = Array.length v in
  if lv = 0 then raise Division_by_zero;
  if mag_compare u v < 0 then ([||], Array.copy u)
  else if lv = 1 then begin
    let d = v.(0) in
    let lu = Array.length u in
    let q = Array.make lu 0 in
    let rem = ref 0 in
    for i = lu - 1 downto 0 do
      let cur = (!rem lsl base_bits) lor u.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (q, if !rem = 0 then [||] else [| !rem |])
  end
  else begin
    let s = base_bits - bits_of_limb v.(lv - 1) in
    let vn = mag_normalize (mag_shift_left v s) in
    let un = Array.append (mag_normalize (mag_shift_left u s)) [| 0 |] in
    let n = Array.length vn in
    let m = Array.length un - n - 1 in
    let q = Array.make (m + 1) 0 in
    let vtop = vn.(n - 1) and vsnd = vn.(n - 2) in
    for j = m downto 0 do
      let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vtop) in
      let rhat = ref (num mod vtop) in
      let continue_fix = ref true in
      while !continue_fix do
        if !qhat >= base || !qhat * vsnd > (!rhat lsl base_bits) lor un.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then continue_fix := false
        end
        else continue_fix := false
      done;
      (* multiply and subtract *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * vn.(i) + !carry in
        carry := p lsr base_bits;
        let d = un.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          un.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          un.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = un.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back *)
        un.(j + n) <- d + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let s2 = un.(i + j) + vn.(i) + !carry2 in
          un.(i + j) <- s2 land limb_mask;
          carry2 := s2 lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry2) land limb_mask
      end
      else un.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = mag_shift_right (mag_normalize (Array.sub un 0 n)) s in
    (q, r)
  end

(* ------------------------------------------------------------------ *)
(* Signed interface                                                    *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* min_int's magnitude still fits: we build limbs via euclidean steps on
       the absolute value computed limb by limb to avoid overflow. *)
    let rec limbs n acc = if n = 0 then acc else limbs (n lsr base_bits) ((n land limb_mask) :: acc) in
    let n_abs = abs n in
    if n_abs >= 0 then make sign (Array.of_list (List.rev (limbs n_abs [])))
    else
      (* n = min_int: abs overflows; handle via unsigned shift trick *)
      let lo = n land limb_mask in
      let mid = (n lsr base_bits) land limb_mask in
      let hi = (n lsr (2 * base_bits)) land 1 in
      make sign [| lo; mid; hi |]
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign t = t.sign
let is_zero t = t.sign = 0

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg a = if a.sign = 0 then zero else { a with sign = -a.sign }
let abs a = if a.sign < 0 then neg a else a

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (mag_sub a.mag b.mag)
    else make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else make (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) q, make a.sign r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign < 0 then
    if b.sign > 0 then (sub q one, add r b) else (add q one, sub r b)
  else (q, r)

let emod a b = snd (ediv_rem a b)

let div_round a b =
  if b.sign = 0 then raise Division_by_zero;
  let q, r = mag_divmod a.mag b.mag in
  let twice_r = mag_mul r [| 2 |] in
  let q = if mag_compare (mag_normalize twice_r) b.mag >= 0 then mag_add q [| 1 |] else q in
  make (a.sign * b.sign) q

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec loop acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      loop acc (mul b b) (e lsr 1)
    end
  in
  loop one b e

let modpow b e m =
  if m.sign <= 0 then invalid_arg "Bigint.modpow: modulus must be positive";
  let b = emod b m in
  let rec loop acc b e =
    if is_zero e then acc
    else begin
      let acc = if is_even e then acc else emod (mul acc b) m in
      loop acc (emod (mul b b) m) (shift_right_one e)
    end
  and shift_right_one e = make e.sign (mag_shift_right e.mag 1)
  and is_even e = Array.length e.mag = 0 || e.mag.(0) land 1 = 0 in
  loop one b e

let rec gcd a b = if is_zero b then abs a else gcd b (rem a b)

let shift_left a k =
  if k = 0 || a.sign = 0 then a
  else if k < 0 then invalid_arg "Bigint.shift_left"
  else make a.sign (mag_shift_left a.mag k)

let shift_right a k =
  if k = 0 || a.sign = 0 then a
  else if k < 0 then invalid_arg "Bigint.shift_right"
  else make a.sign (mag_shift_right a.mag k)

let num_bits a =
  let l = Array.length a.mag in
  if l = 0 then 0 else ((l - 1) * base_bits) + bits_of_limb a.mag.(l - 1)

let is_even a = Array.length a.mag = 0 || a.mag.(0) land 1 = 0

let pow2 k =
  if k < 0 then invalid_arg "Bigint.pow2";
  let mag = Array.make ((k / base_bits) + 1) 0 in
  mag.((k / base_bits)) <- 1 lsl (k mod base_bits);
  make 1 mag

let mod_int a m =
  if m <= 0 || m >= base then invalid_arg "Bigint.mod_int: modulus out of range";
  (* Horner over limbs, most significant first: residues stay < 2^31 so the
     intermediate [r * base + limb] stays below 2^62. *)
  let r = ref 0 in
  for i = Array.length a.mag - 1 downto 0 do
    r := (((!r lsl base_bits) lor a.mag.(i)) mod m)
  done;
  if a.sign < 0 && !r <> 0 then m - !r else !r

let centered_mod a q =
  if q.sign <= 0 then invalid_arg "Bigint.centered_mod: modulus must be positive";
  let r = emod a q in
  if compare (mul_int r 2) q >= 0 then sub r q else r

let to_int_opt a =
  (* Native int holds up to 62 bits of magnitude. *)
  if num_bits a > 62 then None
  else begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) a.mag 0 in
    Some (if a.sign < 0 then -v else v)
  end

let to_int a =
  match to_int_opt a with Some v -> v | None -> failwith "Bigint.to_int: overflow"

let to_float a =
  let v = Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) a.mag 0.0 in
  if a.sign < 0 then -.v else v

let chunk = 1_000_000_000 (* 10^9 < 2^31 *)

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec loop mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod mag [| chunk |] in
        let r = if Array.length r = 0 then 0 else r.(0) in
        loop (mag_normalize q) (r :: acc)
      end
    in
    (match loop a.mag [] with
    | [] -> assert false
    | first :: rest ->
        if a.sign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%09d" d)) rest);
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_sign = s.[0] = '-' in
  let start = if neg_sign || s.[0] = '+' then 1 else 0 in
  if len - start >= 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X') then begin
    let acc = ref zero in
    for i = start + 2 to len - 1 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Bigint.of_string: bad hex digit"
      in
      if d >= 0 then acc := add_int (shift_left !acc 4) d
    done;
    if neg_sign then neg !acc else !acc
  end
  else begin
    if len = start then invalid_arg "Bigint.of_string: no digits";
    let acc = ref zero in
    let i = ref start in
    while !i < len do
      (* consume up to 9 decimal digits at a time *)
      let j = Stdlib.min len (!i + 9) in
      let block = ref 0 and ndigits = ref 0 in
      for k = !i to j - 1 do
        match s.[k] with
        | '0' .. '9' as c ->
            block := (!block * 10) + (Char.code c - Char.code '0');
            incr ndigits
        | '_' -> ()
        | _ -> invalid_arg "Bigint.of_string: bad digit"
      done;
      let scale =
        let rec p10 n = if n = 0 then 1 else 10 * p10 (n - 1) in
        p10 !ndigits
      in
      acc := add_int (mul_int !acc scale) !block;
      i := j
    done;
    if neg_sign then neg !acc else !acc
  end

let random_below rand31 bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound must be positive";
  let nlimbs = Array.length bound.mag in
  let top_bits = bits_of_limb bound.mag.(nlimbs - 1) in
  let top_mask = (1 lsl top_bits) - 1 in
  let rec draw () =
    let mag = Array.init nlimbs (fun i -> if i = nlimbs - 1 then rand31 () land top_mask else rand31 () land limb_mask) in
    let candidate = make 1 mag in
    if compare candidate bound < 0 then candidate else draw ()
  in
  draw ()
