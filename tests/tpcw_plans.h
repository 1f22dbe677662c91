// Expected SelectPlan::Explain text for every TPC-W SELECT on the four
// HBase-backed systems at 40 customers (TpcwPlansTest in systems_test.cc).
// To regenerate after a deliberate plan change, run
//   ./build/systems_test --gtest_filter='TpcwPlansTest.*'
// and paste the plans it prints between the delimiters below.
#pragma once

namespace synergy::systems {

inline constexpr char kTpcwPlans[] = R"plans(== Synergy Q1
0: Item-Order_line SOURCE INDEX_SCAN(vix_Item-Order_line_ol_o_id) residual=0 est=1
== Synergy Q2
0: Customer-Orders SOURCE INDEX_SCAN(vix_Customer-Orders_c_uname) residual=0 est=1
== Synergy Q3
0: Customer AS c SOURCE INDEX_SCAN(ix_customer_uname) residual=0 est=1
1: Country-Address INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Synergy Q4
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== Synergy Q5
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== Synergy Q6
0: Author-Item SOURCE PK_GET residual=0 est=1
== Synergy Q7
0: Orders AS o SOURCE PK_GET residual=0 est=1
1: Customer AS c INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Address AS ship_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
3: Address AS bill_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
4: Country AS ship_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
5: Country AS bill_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Synergy Q8
0: Item-Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== Synergy Q9
0: Item AS i SOURCE PK_GET residual=0 est=1
1: Item AS j INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Synergy Q10
0: Author-Item-Order_line SOURCE INDEX_SCAN(vix_Author-Item-Order_line_i_subject) residual=0 est=60
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=60
== Synergy Q11
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_i_id) residual=0 est=1
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Order_line AS ol2 INDEX_NESTED_LOOP INDEX(ix_ol_o_id) residual=2 est=12
== Synergy S1
0: Customer SOURCE PK_GET residual=0 est=1
== Synergy S2
0: Item SOURCE PK_GET residual=0 est=1
== Synergy S3
0: Item SOURCE PK_GET residual=0 est=1
== Synergy S4
0: Address SOURCE PK_GET residual=0 est=1
== Synergy S5
0: Country SOURCE PK_GET residual=0 est=1
== Synergy S6
0: Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== Synergy S7
0: Orders SOURCE INDEX_SCAN(ix_orders_c_id) residual=0 est=1
== Synergy S8
0: Shopping_cart SOURCE PK_GET residual=0 est=1
== MVCC-A Q1
0: Item-Order_line SOURCE INDEX_SCAN(vix_Item-Order_line_ol_o_id) residual=0 est=1
== MVCC-A Q2
0: Customer-Orders SOURCE INDEX_SCAN(vix_Customer-Orders_c_uname) residual=0 est=1
== MVCC-A Q3
0: Customer AS c SOURCE INDEX_SCAN(ix_customer_uname) residual=0 est=1
1: Country-Address INDEX_NESTED_LOOP PK_GET residual=1 est=1
== MVCC-A Q4
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== MVCC-A Q5
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== MVCC-A Q6
0: Author-Item SOURCE PK_GET residual=0 est=1
== MVCC-A Q7
0: Orders AS o SOURCE PK_GET residual=0 est=1
1: Customer AS c INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Address AS ship_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
3: Address AS bill_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
4: Country AS ship_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
5: Country AS bill_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
== MVCC-A Q8
0: Item-Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== MVCC-A Q9
0: Item AS i SOURCE PK_GET residual=0 est=1
1: Item AS j INDEX_NESTED_LOOP PK_GET residual=1 est=1
== MVCC-A Q10
0: Author-Item-Order_line SOURCE INDEX_SCAN(vix_Author-Item-Order_line_i_subject) residual=0 est=60
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=60
== MVCC-A Q11
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_i_id) residual=0 est=1
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Order_line AS ol2 INDEX_NESTED_LOOP INDEX(ix_ol_o_id) residual=2 est=12
== MVCC-A S1
0: Customer SOURCE PK_GET residual=0 est=1
== MVCC-A S2
0: Item SOURCE PK_GET residual=0 est=1
== MVCC-A S3
0: Item SOURCE PK_GET residual=0 est=1
== MVCC-A S4
0: Address SOURCE PK_GET residual=0 est=1
== MVCC-A S5
0: Country SOURCE PK_GET residual=0 est=1
== MVCC-A S6
0: Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== MVCC-A S7
0: Orders SOURCE INDEX_SCAN(ix_orders_c_id) residual=0 est=1
== MVCC-A S8
0: Shopping_cart SOURCE PK_GET residual=0 est=1
== MVCC-UA Q1
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_o_id) residual=0 est=1
1: Item AS i INDEX_NESTED_LOOP PK_GET residual=1 est=1
== MVCC-UA Q2
0: Customer AS c SOURCE INDEX_SCAN(ix_customer_uname) residual=0 est=1
1: Orders AS o INDEX_NESTED_LOOP INDEX(ix_orders_c_id) residual=1 est=10
== MVCC-UA Q3
0: Country-Address-Customer SOURCE INDEX_SCAN(vix_Country-Address-Customer_c_uname) residual=0 est=1
== MVCC-UA Q4
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== MVCC-UA Q5
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
== MVCC-UA Q6
0: Author-Item SOURCE PK_GET residual=0 est=1
== MVCC-UA Q7
0: Orders AS o SOURCE PK_GET residual=0 est=1
1: Country-Address-Customer INDEX_NESTED_LOOP PK_GET residual=3 est=1
== MVCC-UA Q8
0: Item-Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== MVCC-UA Q9
0: Item AS i SOURCE PK_GET residual=0 est=1
1: Item AS j INDEX_NESTED_LOOP PK_GET residual=1 est=1
== MVCC-UA Q10
0: Author-Item SOURCE INDEX_SCAN(vix_Author-Item_i_subject) residual=0 est=20
1: Order_line AS ol INDEX_NESTED_LOOP INDEX(ix_ol_i_id) residual=1 est=200
2: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=200
== MVCC-UA Q11
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_i_id) residual=0 est=1
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Order_line AS ol2 INDEX_NESTED_LOOP INDEX(ix_ol_o_id) residual=2 est=12
== MVCC-UA S1
0: Customer SOURCE PK_GET residual=0 est=1
== MVCC-UA S2
0: Item SOURCE PK_GET residual=0 est=1
== MVCC-UA S3
0: Item SOURCE PK_GET residual=0 est=1
== MVCC-UA S4
0: Address SOURCE PK_GET residual=0 est=1
== MVCC-UA S5
0: Country SOURCE PK_GET residual=0 est=1
== MVCC-UA S6
0: Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== MVCC-UA S7
0: Orders SOURCE INDEX_SCAN(ix_orders_c_id) residual=0 est=1
== MVCC-UA S8
0: Shopping_cart SOURCE PK_GET residual=0 est=1
== Baseline Q1
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_o_id) residual=0 est=1
1: Item AS i INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q2
0: Customer AS c SOURCE INDEX_SCAN(ix_customer_uname) residual=0 est=1
1: Orders AS o INDEX_NESTED_LOOP INDEX(ix_orders_c_id) residual=1 est=10
== Baseline Q3
0: Customer AS c SOURCE INDEX_SCAN(ix_customer_uname) residual=0 est=1
1: Address AS a INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Country AS co INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q4
0: Item AS i SOURCE INDEX_SCAN(ix_item_subject) residual=0 est=20
1: Author AS a INDEX_NESTED_LOOP PK_GET residual=1 est=20
== Baseline Q5
0: Item AS i SOURCE INDEX_SCAN(ix_item_subject) residual=0 est=20
1: Author AS a INDEX_NESTED_LOOP PK_GET residual=1 est=20
== Baseline Q6
0: Item AS i SOURCE PK_GET residual=0 est=1
1: Author AS a INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q7
0: Orders AS o SOURCE PK_GET residual=0 est=1
1: Customer AS c INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Address AS ship_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
3: Address AS bill_addr INDEX_NESTED_LOOP PK_GET residual=1 est=1
4: Country AS ship_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
5: Country AS bill_co INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q8
0: Shopping_cart_line AS scl SOURCE PK_PREFIX_SCAN residual=0 est=1
1: Item AS i INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q9
0: Item AS i SOURCE PK_GET residual=0 est=1
1: Item AS j INDEX_NESTED_LOOP PK_GET residual=1 est=1
== Baseline Q10
0: Item AS i SOURCE INDEX_SCAN(ix_item_subject) residual=0 est=20
1: Author AS a INDEX_NESTED_LOOP PK_GET residual=1 est=20
2: Order_line AS ol INDEX_NESTED_LOOP INDEX(ix_ol_i_id) residual=1 est=200
3: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=200
== Baseline Q11
0: Order_line AS ol SOURCE INDEX_SCAN(ix_ol_i_id) residual=0 est=1
1: Orders_tmp AS ot INDEX_NESTED_LOOP PK_GET residual=1 est=1
2: Order_line AS ol2 INDEX_NESTED_LOOP INDEX(ix_ol_o_id) residual=2 est=12
== Baseline S1
0: Customer SOURCE PK_GET residual=0 est=1
== Baseline S2
0: Item SOURCE PK_GET residual=0 est=1
== Baseline S3
0: Item SOURCE PK_GET residual=0 est=1
== Baseline S4
0: Address SOURCE PK_GET residual=0 est=1
== Baseline S5
0: Country SOURCE PK_GET residual=0 est=1
== Baseline S6
0: Shopping_cart_line SOURCE PK_PREFIX_SCAN residual=0 est=1
== Baseline S7
0: Orders SOURCE INDEX_SCAN(ix_orders_c_id) residual=0 est=1
== Baseline S8
0: Shopping_cart SOURCE PK_GET residual=0 est=1
)plans";

}  // namespace synergy::systems
