open Ccr_core
open Test_util

let value = Alcotest.testable Value.pp Value.equal

let set_of_mask m = Value.Vset m

let tests =
  [
    case "default values" (fun () ->
        check value "unit" Value.Vunit (Value.default Value.Dunit);
        check value "bool" (Value.Vbool false) (Value.default Value.Dbool);
        check value "int low bound" (Value.Vint 3)
          (Value.default (Value.Dint (3, 7)));
        check value "rid" (Value.Vrid 0) (Value.default Value.Drid);
        check value "set" (Value.Vset 0) (Value.default Value.Dset));
    case "membership respects n" (fun () ->
        checkb "r1 in n=2" true (Value.member ~n:2 Value.Drid (Value.Vrid 1));
        checkb "r2 not in n=2" false
          (Value.member ~n:2 Value.Drid (Value.Vrid 2));
        checkb "mask 3 in n=2" true
          (Value.member ~n:2 Value.Dset (Value.Vset 3));
        checkb "mask 4 not in n=2" false
          (Value.member ~n:2 Value.Dset (Value.Vset 4));
        checkb "int range" true
          (Value.member ~n:1 (Value.Dint (0, 5)) (Value.Vint 5));
        checkb "int out of range" false
          (Value.member ~n:1 (Value.Dint (0, 5)) (Value.Vint 6));
        checkb "cross-type" false (Value.member ~n:2 Value.Drid (Value.Vint 0)));
    case "enumerate sizes" (fun () ->
        checki "unit" 1 (List.length (Value.enumerate ~n:3 Value.Dunit));
        checki "bool" 2 (List.length (Value.enumerate ~n:3 Value.Dbool));
        checki "int" 5 (List.length (Value.enumerate ~n:3 (Value.Dint (2, 6))));
        checki "rid" 3 (List.length (Value.enumerate ~n:3 Value.Drid));
        checki "set" 8 (List.length (Value.enumerate ~n:3 Value.Dset)));
    case "enumerate members are members" (fun () ->
        List.iter
          (fun d ->
            List.iter
              (fun v -> checkb "member" true (Value.member ~n:3 d v))
              (Value.enumerate ~n:3 d))
          [ Value.Dunit; Value.Dbool; Value.Dint (-2, 2); Value.Drid; Value.Dset ]);
    case "set operations" (fun () ->
        let s = Value.set_empty in
        checkb "empty" true (Value.set_is_empty s);
        let s = Value.set_add 2 s in
        let s = Value.set_add 0 s in
        checkb "mem 0" true (Value.set_mem 0 s);
        checkb "mem 1" false (Value.set_mem 1 s);
        checkb "mem 2" true (Value.set_mem 2 s);
        checki "cardinal" 2 (Value.set_cardinal s);
        Alcotest.(check (list int)) "members" [ 0; 2 ] (Value.set_members s);
        let s = Value.set_remove 0 s in
        checkb "removed" false (Value.set_mem 0 s);
        checkb "idempotent remove" true
          (Value.equal s (Value.set_remove 0 s));
        check value "of_list" (set_of_mask 0b101) (Value.set_of_list [ 0; 2 ]));
    case "encode is injective on samples" (fun () ->
        let all =
          List.concat_map
            (Value.enumerate ~n:4)
            [ Value.Dunit; Value.Dbool; Value.Dint (-3, 9); Value.Drid; Value.Dset ]
          |> List.sort_uniq Value.compare
        in
        let encodings =
          List.map
            (fun v ->
              let b = Buffer.create 8 in
              Value.encode b v;
              Buffer.contents b)
            all
        in
        checki "distinct encodings" (List.length all)
          (List.length (List.sort_uniq String.compare encodings)));
    case "encode_int injective on boundaries" (fun () ->
        let samples = [ 0; 1; 100; 0xf7; 0xf8; 0xf9; 1000; 123456; 999999 ] in
        let enc i =
          let b = Buffer.create 8 in
          Value.encode_int b i;
          Buffer.contents b
        in
        checki "distinct" (List.length samples)
          (List.length (List.sort_uniq String.compare (List.map enc samples))));
    qcase "set_add/mem model" ~count:200
      QCheck2.Gen.(pair (list (int_bound 7)) (int_bound 7))
      (fun (l, x) ->
        let s = Value.set_of_list l in
        Value.set_mem x (Value.set_add x s)
        && (not (Value.set_mem x (Value.set_remove x s)))
        && Value.set_cardinal s = List.length (List.sort_uniq compare l));
    qcase "set members round-trip" ~count:200
      QCheck2.Gen.(list (int_bound 7))
      (fun l ->
        let s = Value.set_of_list l in
        Value.equal s (Value.set_of_list (Value.set_members s)));
    case "set_cardinal counts the members of every mask below 2^10"
      (fun () ->
        for m = 0 to (1 lsl 10) - 1 do
          let s = Value.Vset m in
          checki (string_of_int m)
            (List.length (Value.set_members s))
            (Value.set_cardinal s)
        done);
  ]

let suite = ("value", tests)
